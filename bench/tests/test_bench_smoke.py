"""Smoke test of the benchmark at toy sizes; not a timing gate.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that tracing leaves outputs and counts unchanged, that each workload's
dominant layer counts are nonzero when traced, and that the benchmark refuses
to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from nbench import harness, tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

DOMINANT = {
    "certify": ["embed.value_and_subgrad.calls", "verify.flow.steps", "verify.certificate.calls",
                "cli.bytes_written"],
    "montecarlo": ["oracles.query.calls", "oracles.propose.calls", "hard1d.build_r.calls",
                   "hard1d.oracle1d.calls", "intervals.locate.calls", "embed.value_and_subgrad.calls"],
    "invariants": ["embed.eval_f_batch.rows", "embed.min_subgrad_norm_batch.rows", "embed.batch.bytes_in",
                   "hard1d.eval_r.calls", "intervals.descend.calls", "schedule.calls"],
}


def _emitted(record):
    line = json.loads(harness.summary_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    for m in line["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["unit"]
    return {name: m["unit"] for name, m in line["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_runs_emit_every_metric(workload, tmp_path):
    src = ROOT / "src"
    plain = harness.measure(workload, 5, 0.0, False, tmp_path, src, toy=True, setup_probes=1)
    assert _emitted(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])

    traced = harness.measure(workload, 5, 0.0, True, tmp_path, src, toy=True)
    assert _emitted(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert traced["trace_problems"] == []
    assert traced["info"]["missing_targets"] == []
    for name in DOMINANT[workload]:
        assert traced["metrics"][name]["value"] > 0, name
    if workload != "certify":
        assert traced["metrics"]["verify.flow.steps"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "certify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_wrap_target_is_reported_not_raised():
    import nshard.embed

    original = nshard.embed.build_h
    gone = [("embed.gone", "nshard.embed:no_such_function", tracer.SPAN, None),
            ("embed.gone_method", "nshard.embed:HardInstance.no_such_method", tracer.SPAN, None)]
    with tracer.Tracer(tracer.TARGETS + gone) as tr:
        assert nshard.embed.build_h is not original
    assert tr.missing == [where for _, where, _, _ in gone]
    assert nshard.embed.build_h is original
