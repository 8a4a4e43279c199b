"""The invariant suite's samples as a stream of row blocks, drawn ahead on a worker thread.

A Generator fills a block sequentially, so a draw in row blocks is the one-call draw's rows and
leaves the Generator where that draw leaves it.  On this rests the suite's identity, check by
check, with the one-call reference of oracle_reference, at block boundaries and away from them.
The suite's worker ends with the suite however it ends, and a suite that draws inline gives the
same bytes.
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from oracle_reference import reference_embedded_checks
from test_lockstep import _finishes, any_cpu  # noqa: F401 (any_cpu is a fixture)

from nshard import oracles, verify
from nshard.verify import SAMPLE_BLOCK_BYTES, SuiteParams, invariant_suite

DRAWS = {
    "uniform": lambda rng, n, d: rng.uniform(-3.0, 3.0, size=(n, d)),
    "normal": lambda rng, n, d: rng.normal(scale=0.5, size=(n, d)),
    "standard_normal": lambda rng, n, d: rng.standard_normal((n, d)),
}


@pytest.mark.parametrize("d", [1, 2, 7, 50])
@pytest.mark.parametrize("name", sorted(DRAWS))
def test_row_blocks_are_the_one_call_draw(name, d):
    n = 2 * (SAMPLE_BLOCK_BYTES // (8 * d)) + 1
    for sizes in (verify._row_blocks(n, d), [1, 2, 97, n - 100]):
        assert sum(sizes) == n
        whole, blocked = np.random.default_rng(d), np.random.default_rng(d)
        want = DRAWS[name](whole, n, d)
        got = np.concatenate([DRAWS[name](blocked, k, d) for k in sizes])
        assert got.tobytes() == want.tobytes()
        assert blocked.bit_generator.state == whole.bit_generator.state


def test_row_blocks_hold_about_sample_block_bytes():
    assert verify._row_blocks(0, 50) == []
    assert verify._row_blocks(5, 50) == [5]
    rows = SAMPLE_BLOCK_BYTES // (8 * 50)
    assert verify._row_blocks(2 * rows + 1, 50) == [rows, rows, 1]
    assert verify._row_blocks(3, SAMPLE_BLOCK_BYTES) == [1, 1, 1]


@pytest.mark.parametrize("d", [2, 50])
@pytest.mark.parametrize("count", ["one row", "block - 1", "block", "block + 1"])
def test_suite_equals_the_one_call_reference(any_cpu, d, count):
    """No separation draws and no tables, so the embedded section starts the suite's stream."""
    rows = SAMPLE_BLOCK_BYTES // (8 * d)
    n = {"one row": 1, "block - 1": rows - 1, "block": rows, "block + 1": rows + 1}[count]
    p = SuiteParams(n_instances=0, separation_draws=0, dims=(d,), lipschitz_pairs=n, stationarity_points=n)
    got = {c.name: c for c in invariant_suite(seed=n, params=p).checks}
    want = reference_embedded_checks(np.random.default_rng(n), p).checks
    assert len(want) == 6
    for c in want:
        assert (got[c.name].passed, repr(got[c.name].measured)) == (c.passed, repr(c.measured)), c.name


SMALL = dict(n_instances=2, separation_draws=2, dims=(2, 50), lipschitz_pairs=3000, stationarity_points=3000)


@pytest.fixture
def threads_at_build(monkeypatch):
    """The thread count each time the suite builds an embedded instance: one per dimension, then
    the kink instance."""
    seen, build = [], verify.build_instance

    def counted(*args, **kwargs):
        seen.append(threading.active_count())
        return build(*args, **kwargs)

    monkeypatch.setattr(verify, "build_instance", counted)
    return seen


def test_suite_worker_ends_with_the_suite(any_cpu, threads_at_build):
    def suites():
        before, cpus = threading.active_count(), os.sched_getaffinity(0)
        assert invariant_suite(seed=3, params=SuiteParams(**SMALL)).all_passed
        # the worker draws for both dimensions and is joined before the kink section draws inline
        assert threads_at_build == [before + 1, before + 1, before]
        assert threading.active_count() == before and os.sched_getaffinity(0) == cpus
        threads_at_build.clear()
        with pytest.raises(ValueError, match="^rho must be positive"):
            invariant_suite(seed=3, params=SuiteParams(**SMALL, rho=0.0))
        assert threads_at_build == [before + 1]
        assert threading.active_count() == before and os.sched_getaffinity(0) == cpus

    _finishes(suites)


def test_suite_drawing_inline_gives_the_same_bytes(tmp_path, monkeypatch, any_cpu, threads_at_build):
    before = threading.active_count()
    ahead = invariant_suite(seed=3, params=SuiteParams(**SMALL))
    monkeypatch.setattr(oracles, "_other_cpus", lambda: set())
    inline = invariant_suite(seed=3, params=SuiteParams(**SMALL))
    assert threads_at_build == [before + 1, before + 1, before] + [before] * 3
    for rep, name in ((ahead, "ahead"), (inline, "inline")):
        rep.write_csv(tmp_path / f"{name}.csv")
        rep.write_jsonl(tmp_path / f"{name}.jsonl")
    for ext in ("csv", "jsonl"):
        assert (tmp_path / f"ahead.{ext}").read_bytes() == (tmp_path / f"inline.{ext}").read_bytes()


@pytest.mark.parametrize("where", ["ahead", "inline"])
def test_suite_memory_does_not_grow_with_the_pairs(monkeypatch, any_cpu, where):
    """The pairs' pass redraws X's blocks from a copy of the stream instead of keeping them, so a
    suite's traced peak barely moves from 4 to 16 blocks of pairs."""
    if where == "inline":
        monkeypatch.setattr(oracles, "_other_cpus", lambda: set())
    rows = SAMPLE_BLOCK_BYTES // (8 * 50)

    def peak(blocks):
        p = SuiteParams(n_instances=0, separation_draws=0, dims=(50,), lipschitz_pairs=blocks * rows,
                        stationarity_points=rows)
        tracemalloc.start()
        try:
            assert invariant_suite(seed=blocks, params=p).all_passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4), peak(16)
    assert large - small < 2 * SAMPLE_BLOCK_BYTES, (small, large)
