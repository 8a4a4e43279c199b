"""Per-layer metrics derived from the tracer's totals, and what each should move.

The layers are nshard's modules.  Each metric is a count or a self time per
traced job, or a ratio of two of them taken over all traced jobs.
"""

from __future__ import annotations

# name -> (unit, better)
PER_LAYER = {
    "embed.value_and_subgrad.calls": ("calls/job", "lower"),
    "embed.value_and_subgrad.self_s": ("s/job", "lower"),
    "embed.value_and_subgrad.us_per_call": ("us/call", "lower"),
    "verify.flow.steps": ("steps/job", "lower"),
    "verify.flow.self_s": ("s/job", "lower"),
    "verify.flow.stalls": ("count/job", "lower"),
    "verify.flow.queries_per_step": ("queries/step", "lower"),
    "verify.certificate.calls": ("calls/job", "lower"),
    "verify.certificate.ok_frac": ("frac", "higher"),
    "verify.certificate.ball_fallbacks": ("count/job", "lower"),
    "embed.eval_f_batch.rows": ("rows/job", "lower"),
    "embed.eval_f_batch.self_s": ("s/job", "lower"),
    "embed.eval_f_batch.ns_per_row": ("ns/row", "lower"),
    "embed.min_subgrad_norm_batch.rows": ("rows/job", "lower"),
    "embed.min_subgrad_norm_batch.self_s": ("s/job", "lower"),
    "embed.min_subgrad_norm_batch.ns_per_row": ("ns/row", "lower"),
    "embed.batch.fallback_frac": ("frac", "lower"),
    "embed.batch.bytes_in": ("bytes/job", "lower"),
    "hard1d.build_r.calls": ("calls/job", "lower"),
    "hard1d.build_r.self_s": ("s/job", "lower"),
    "intervals.interval.calls": ("calls/job", "lower"),
    "embed.build.calls": ("calls/job", "lower"),
    "embed.build.self_s": ("s/job", "lower"),
    "intervals.locate.calls": ("calls/job", "lower"),
    "intervals.locate.self_s": ("s/job", "lower"),
    "verify.progress_process.self_s": ("s/job", "lower"),
    "hard1d.oracle1d.calls": ("calls/job", "lower"),
    "hard1d.oracle1d.self_s": ("s/job", "lower"),
    "oracles.query.calls": ("calls/job", "lower"),
    "oracles.propose.calls": ("calls/job", "lower"),
    "oracles.run.self_s": ("s/job", "lower"),
    "verify.mc.self_s": ("s/job", "lower"),
    "hard1d.eval_r.calls": ("calls/job", "lower"),
    "hard1d.eval_r.self_s": ("s/job", "lower"),
    "hard1d.table_call.calls": ("calls/job", "lower"),
    "intervals.descend.calls": ("calls/job", "lower"),
    "schedule.calls": ("calls/job", "lower"),
    "verify.invariant_suite.self_s": ("s/job", "lower"),
    "cli.self_s": ("s/job", "lower"),
    "cli.bytes_written": ("bytes/job", "lower"),
    "trace.job_s": ("s/job", "lower"),
    "trace.spans": ("spans/job", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.missing_targets": ("count", "lower"),
}

# layer metric prefix -> end-to-end metrics it should move, and on which workloads
LAYER_MAP = {
    "embed.value_and_subgrad": (["throughput", "job_s_min"], ["certify", "montecarlo"]),
    "verify.flow": (["throughput"], ["certify"]),
    "verify.certificate": (["throughput"], ["certify"]),
    "embed.eval_f_batch": (["throughput"], ["invariants"]),
    "embed.min_subgrad_norm_batch": (["throughput"], ["invariants"]),
    "embed.batch": (["throughput"], ["invariants"]),
    "hard1d.build_r": (["throughput", "setup_s"], ["montecarlo"]),
    "intervals.interval": (["throughput", "setup_s"], ["montecarlo"]),
    "embed.build": (["throughput", "setup_s"], ["montecarlo"]),
    "intervals.locate": (["throughput"], ["montecarlo"]),
    "verify.progress_process": (["throughput"], ["montecarlo"]),
    "hard1d.oracle1d": (["throughput"], ["montecarlo"]),
    "oracles": (["throughput"], ["montecarlo"]),
    "verify.mc": (["throughput"], ["montecarlo"]),
    "hard1d.eval_r": (["job_s_min"], ["invariants"]),
    "intervals.descend": (["job_s_min"], ["invariants"]),
    "schedule": (["job_s_min"], ["invariants"]),
    "cli": (["job_s_min"], ["certify", "montecarlo"]),
}

# totals that must repeat exactly when a job is traced twice at one seed
COUNT_SUFFIXES = (".calls", ".rows", ".steps", ".stalls", ".ok", ".bytes_in", ".spans")


def repeatable(totals: dict) -> dict:
    return {k: v for k, v in totals.items() if k.endswith(COUNT_SUFFIXES) or ".under." in k}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer(totals: dict, jobs: int, bytes_written: int, job_s: float,
              overhead_s: float, missing: int) -> dict:
    """Per-layer metric values from totals summed over ``jobs`` traced jobs."""
    t = lambda key: totals.get(key, 0)  # noqa: E731
    per_job = lambda key: t(key) / jobs  # noqa: E731
    v = {}
    for name in ("embed.value_and_subgrad", "verify.certificate", "hard1d.build_r", "intervals.interval",
                 "intervals.locate", "hard1d.oracle1d", "oracles.query", "oracles.propose", "hard1d.eval_r",
                 "hard1d.table_call", "intervals.descend", "schedule"):
        v[name + ".calls"] = per_job(name + ".calls")
    for name in ("embed.value_and_subgrad", "verify.flow", "embed.eval_f_batch", "embed.min_subgrad_norm_batch",
                 "hard1d.build_r", "intervals.locate", "verify.progress_process", "hard1d.oracle1d",
                 "oracles.run", "hard1d.eval_r", "verify.invariant_suite", "cli"):
        v[name + ".self_s"] = per_job(name + ".self_s")
    v["embed.value_and_subgrad.us_per_call"] = _ratio(
        t("embed.value_and_subgrad.self_s"), t("embed.value_and_subgrad.calls"), 1e6)
    v["verify.flow.steps"] = per_job("verify.flow.steps")
    v["verify.flow.stalls"] = per_job("verify.flow.stalls")
    v["verify.flow.queries_per_step"] = _ratio(
        t("embed.value_and_subgrad.under.verify.flow"), t("verify.flow.steps"))
    v["verify.certificate.ok_frac"] = _ratio(t("verify.certificate.ok"), t("verify.certificate.calls"))
    v["verify.certificate.ball_fallbacks"] = per_job("embed.eval_f_batch.under.verify.certificate")
    for kernel in ("embed.eval_f_batch", "embed.min_subgrad_norm_batch"):
        v[kernel + ".rows"] = per_job(kernel + ".rows")
        v[kernel + ".ns_per_row"] = _ratio(t(kernel + ".self_s"), t(kernel + ".rows"), 1e9)
    v["embed.batch.fallback_frac"] = _ratio(
        t("embed.min_subgrad.under.embed.min_subgrad_norm_batch"), t("embed.min_subgrad_norm_batch.rows"))
    v["embed.batch.bytes_in"] = per_job("embed.batch.bytes_in")
    v["embed.build.calls"] = per_job("embed.build_h.calls")
    v["embed.build.self_s"] = (t("embed.build_h.self_s") + t("embed.build_instance.self_s")) / jobs
    v["verify.mc.self_s"] = (t("verify.mc_hitting.self_s") + t("verify.concentration.self_s")) / jobs
    v["cli.bytes_written"] = bytes_written / jobs if t("cli.calls") else 0.0
    v["trace.job_s"] = job_s
    v["trace.spans"] = per_job("trace.spans")
    v["trace.overhead_s"] = overhead_s
    v["trace.missing_targets"] = missing
    assert set(v) == set(PER_LAYER), set(v) ^ set(PER_LAYER)
    return v
