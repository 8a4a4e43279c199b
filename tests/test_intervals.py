import math

import numpy as np
import pytest

from nshard.intervals import (
    as_bits,
    bits_to_str,
    interval,
    locate,
    random_bits,
    separation_depth,
    separation_margins,
)
from nshard.schedule import DEPTH_CAP, AngleSchedule, DEFAULT_SCHEDULE

# mpmath references at 50 digits, frozen.
REF_I0 = (0.29473724702586063, 0.39736862351293031)
REF_I01 = (0.35373682169357230, 0.36142070811774914)
REF_I00000 = (0.33387427878917181, 0.33387461545518441)
REF_W00000 = 3.3666601259937952e-07


def all_prefixes(depth):
    for k in range(1, depth + 1):
        for code in range(2**k):
            yield tuple((code >> (k - 1 - j)) & 1 for j in range(k))


def test_bits_normalization():
    assert as_bits("0110") == (0, 1, 1, 0)
    assert as_bits([1, 0]) == (1, 0)
    assert bits_to_str((1, 0, 1)) == "101"
    with pytest.raises(ValueError):
        as_bits("012")


def test_stacked_bits_name_their_smallest_bad_value():
    stack = np.array([[0, 1, 5], [3, 1, 0]])
    assert as_bits(np.array([[0, 1], [1, 0]])).tolist() == [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match=r"^bits must be 0 or 1, got 3$"):
        as_bits(stack)
    stack[1, 2] = -2
    with pytest.raises(ValueError, match=r"^bits must be 0 or 1, got -2$"):
        as_bits(stack)


def test_child_interval_images():
    # one bit at base_level=i is the level-i child map applied to [0, 1]
    s = DEFAULT_SCHEDULE
    for i in (1, 2, 5, 12, 30):
        d = s.delta(i)
        c0, c1 = interval((0,), base_level=i), interval((1,), base_level=i)
        assert c0.lo == pytest.approx(0.5 - 2 * d, rel=1e-15)
        assert c0.hi == pytest.approx(0.5 - d, rel=1e-15)
        # bit-1 map at 0 is 1/2 + delta by the affine formula, exactly
        assert c1.lo == 0.5 + d
        assert 0.0 < c0.lo < c0.hi < 0.5 < c1.lo < c1.hi < 1.0


def test_child_interval_reference_value():
    assert interval("0").lo == pytest.approx(REF_I0[0], rel=1e-15)


def test_child_interval_rejects_bad_bit():
    with pytest.raises(ValueError, match=r"^bits must be 0 or 1, got 2$"):
        interval((2,), base_level=1)


def test_interval_empty_prefix_is_unit():
    iv = interval("")
    assert (iv.lo, iv.hi) == (0.0, 1.0)


def test_interval_reference_values():
    for bits, ref in [("0", REF_I0), ("01", REF_I01), ("00000", REF_I00000)]:
        iv = interval(bits)
        assert iv.lo == pytest.approx(ref[0], rel=1e-14)
        assert iv.hi == pytest.approx(ref[1], rel=1e-14)
    assert interval("00000").width == pytest.approx(REF_W00000, rel=1e-9)


def test_interval_width_is_delta_product():
    s = DEFAULT_SCHEDULE
    rng = np.random.default_rng(0)
    for n in (1, 3, 6, 8):
        bits = random_bits(n, rng)
        assert interval(bits).width == pytest.approx(float(s.delta_product(n)), rel=1e-9)


def test_nesting_to_depth_8():
    # child interval strictly inside every ancestor, checked in the local
    # frame of the parent where the margins are order delta, not the product
    for bits in all_prefixes(8):
        k = len(bits)
        child_local = interval(bits[-1:], base_level=k)
        assert child_local.lo > 1e-12
        assert child_local.hi < 1.0 - 1e-12
        if k >= 2:
            iv, parent = interval(bits), interval(bits[:-1])
            assert parent.lo <= iv.lo <= iv.hi <= parent.hi


def test_disjointness_to_depth_8():
    # pairs of equal-length prefixes, compared in the frame of the deepest
    # common ancestor; the gap at the first differing level is at least
    # 2 delta, far above the 1e-12 margin
    prefixes = {k: [p for p in all_prefixes(8) if len(p) == k] for k in range(1, 9)}
    for k, group in prefixes.items():
        for a_i in range(len(group)):
            for b_i in range(a_i + 1, len(group)):
                a, b = group[a_i], group[b_i]
                i = next(j for j in range(k) if a[j] != b[j])
                left, right = (a, b) if a[i] < b[i] else (b, a)
                sup_left = interval(left[i:], base_level=i + 1).hi
                inf_right = interval(right[i:], base_level=i + 1).lo
                assert inf_right - sup_left > 1e-12


def test_depth_cap_enforced():
    with pytest.raises(ValueError):
        interval("01" * 13)  # depth 26 > 24
    # widths shrink like prod delta ~ 10^(-0.15 n^2), so deep prefixes need
    # precision scaled with depth
    ext = AngleSchedule("extended", dps=150)
    iv = interval("01" * 13, ext)
    assert 0 < float(iv.lo) <= float(iv.hi) < 1
    assert float(iv.width) > 0


def test_depth_cap_boundary_and_message():
    message = r"^depth 25 exceeds the binary64 cap 24; build with an extended-precision schedule$"
    assert DEPTH_CAP == 24
    iv = interval("01" * 12)  # depth 24 is accepted, though binary64 rounds its width to 0
    assert 0 < iv.lo <= iv.hi < 1
    with pytest.raises(ValueError, match=message):
        interval("0" + "01" * 12)


def test_locate_at_half_is_zero():
    assert locate(0.5, "0110") == 0
    assert locate(0.5, "1001") == 0


def test_locate_midpoint_reaches_full_depth():
    rng = np.random.default_rng(1)
    for n in (1, 4, 8):
        bits = random_bits(n, rng)
        assert locate(interval(bits).mid, bits) == n


def test_locate_boundary_is_outside():
    bits = as_bits("0")
    iv = interval(bits)
    assert locate(iv.lo, bits) == 0
    assert locate(iv.hi, bits) == 0


def test_locate_against_membership_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(40):
        bits = random_bits(6, rng)
        ivs = [interval(bits[:k]) for k in range(1, 7)]
        for x in rng.uniform(0.0, 1.0, size=50):
            want = 0
            for k, iv in enumerate(ivs, start=1):
                if iv.lo < x < iv.hi:
                    want = k
                else:
                    break
            assert locate(float(x), bits) == want


def test_separation_depth_values():
    assert separation_depth(256.0) == 4
    assert separation_depth(1.0) == 1  # clamped
    assert separation_depth(16.0) == 1
    assert separation_depth(576.0) == 6
    with pytest.raises(ValueError):
        separation_depth(0.0)
    with pytest.raises(ValueError):
        separation_depth(-3.0)


def test_separation_chain_condition():
    # for log2(1/rho) = 256, k = 4: the proof chain needs 2k^2+k+4 < 256
    k = separation_depth(256.0)
    assert 2 * k * k + k + 4 < 256


def test_separation_margins_beat_rho():
    rho = 2.0**-256
    rng = np.random.default_rng(3)
    for _ in range(100):
        bits = random_bits(5, rng)
        gi, gs = separation_margins(bits, 4)
        assert gi > rho
        assert gs > rho


def test_separation_margins_match_endpoints():
    # product form vs direct endpoint subtraction, at shallow depth where
    # the subtraction is still well conditioned; at 50 digits both agree far
    # below binary64 resolution, so no margin is rounded to a float
    rng = np.random.default_rng(4)
    for _ in range(20):
        bits = random_bits(4, rng)
        gi, gs = separation_margins(bits, 3)
        i4, i3 = interval(bits), interval(bits[:3])
        assert gi == pytest.approx(i4.lo - i3.lo, rel=1e-9)
        assert gs == pytest.approx(i3.hi - i4.hi, rel=1e-9)
    ext = AngleSchedule("extended")
    for _ in range(20):
        bits = random_bits(4, rng)
        gi, gs = separation_margins(bits, 3, ext)
        i4, i3 = interval(bits, ext), interval(bits[:3], ext)
        with ext.context():
            assert abs(gi - (i4.lo - i3.lo)) <= 1e-40 * gi
            assert abs(gs - (i3.hi - i4.hi)) <= 1e-40 * gs
