"""The measuring loop: one workload, one seed, a closed loop from one client.

Jobs run back to back in this process on one thread until ``seconds`` have
passed.  Without tracing the run reports the end-to-end metrics; with
tracing it pairs every traced job with an untraced job at the same seed,
checks that both wrote the same bytes, traces the first seed a second time
to check that every count repeats, and reports the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from . import THREAD_ENV, layers, tracer, workloads

END_TO_END = {
    "setup_s": "s",
    "job_s_min": "s",
    "throughput": "items/s",
    "peak_rss_mb": "MiB",
}

PROBE = Path(__file__).with_name("setup_probe.py")


def setup_time(spec: str, src: Path) -> float:
    """Seconds to import nshard and build the instance ``spec`` in a fresh process."""
    proc = subprocess.run([sys.executable, str(PROBE), str(src), spec],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def machine_facts(root: Path) -> dict:
    import numpy

    def getconf(name):
        try:
            proc = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        except OSError:
            return None
        return int(proc.stdout) if proc.returncode == 0 and proc.stdout.strip().isdigit() else None

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for p in sorted((root / "src" / "nshard").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cache_bytes": {name: getconf(name) for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                                                          "LEVEL3_CACHE_SIZE")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": metadata.version("mpmath"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _attempt(workload, seed: int, job_dir: Path) -> workloads.JobResult:
    """Run one job; an exception fails the job instead of the run."""
    t0 = time.perf_counter()
    try:
        return workload.run(seed, job_dir)
    except Exception:
        return workloads.JobResult(seed, time.perf_counter() - t0, 0, "", 0,
                                   ["raised: " + traceback.format_exc(limit=4)])


def _quantile(values, q: float) -> float:
    """Nearest-rank q-quantile."""
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def _fastest(results) -> float:
    """Shortest job wall time.

    The host shares its cores, and other tenants slow the jobs they overlap
    by up to 2x, in bursts of milliseconds to minutes; the fastest of many
    short jobs repeats across runs where the median and the 5th percentile
    do not.  Set-up time is taken the same way, as the fastest probe.
    """
    return min(r.wall_s for r in results)


def _timed_loop(seconds: float, step, limit: int) -> None:
    """Call step(i) for i = 1, 2, ... until ``seconds`` have passed (at least once) or i = limit."""
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        step(i)
        i += 1
        if time.perf_counter() >= deadline or i >= limit:
            return


def run_untraced(workload, seeds, seconds, job_dir, src, setup_probes):
    spec = json.dumps(workload.first_instance(seeds[0]))
    warm = _attempt(workload, seeds[0], job_dir)
    timed, setup = [], []
    start = time.perf_counter()

    def step(i):
        timed.append(_attempt(workload, seeds[i], job_dir))
        # set-up probes are spread over the run, so that a burst of host load hits few of them
        if len(setup) < setup_probes and time.perf_counter() - start >= len(setup) * seconds / setup_probes:
            setup.append(setup_time(spec, src))

    _timed_loop(seconds, step, len(seeds))
    while len(setup) < setup_probes:
        setup.append(setup_time(spec, src))
    metrics = {
        "setup_s": min(setup),
        "job_s_min": _fastest(timed),
        "throughput": max(r.work / r.wall_s for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    walls = [r.wall_s for r in timed]
    info = {"setup_samples_s": setup, "timed_jobs": len(timed),
            "job_s_p50": statistics.median(walls), "job_s_p90": _quantile(walls, 0.9)}
    return metrics, [warm] + timed, [], info


def run_traced(workload, seeds, seconds, job_dir, spans_path):
    warm = _attempt(workload, seeds[0], job_dir)
    plain, traced, tracers, problems = [], [], [], []

    def pair(i):
        plain.append(_attempt(workload, seeds[i], job_dir))
        with tracer.Tracer() as tr:
            traced.append(_attempt(workload, seeds[i], job_dir))
        tracers.append(tr)
        if traced[-1].digest != plain[-1].digest:
            problems.append(f"seed {seeds[i]}: traced output digest differs from untraced")

    _timed_loop(seconds, pair, len(seeds))
    with tracer.Tracer() as again:
        repeat = _attempt(workload, seeds[1], job_dir)
    first, second = layers.repeatable(tracers[0].totals()), layers.repeatable(again.totals())
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        problems.append(f"seed {seeds[1]}: per-layer counts differ between two traced runs: {diff[:8]}")
    if repeat.digest != traced[0].digest:
        problems.append(f"seed {seeds[1]}: second traced run wrote different bytes")

    totals = {}
    for tr in tracers:
        for k, val in tr.totals().items():
            totals[k] = totals.get(k, 0) + val
    overhead = _fastest(traced) - _fastest(plain)
    metrics = layers.per_layer(totals, len(traced), sum(r.bytes_written for r in traced),
                               _fastest(traced), overhead, len(tracers[0].missing))
    tracer.save(spans_path, tracers)
    info = {"pairs": len(traced), "untraced_job_s_min": _fastest(plain), "missing_targets": tracers[0].missing,
            "spans_file": str(spans_path)}
    return metrics, [warm] + plain + traced + [repeat], problems, info


def measure(name, seed, seconds, trace, out_dir: Path, src: Path, toy=False, setup_probes=11) -> dict:
    """Run one measurement and return the result record (its last line is printed)."""
    workload = workloads.make(name, toy=toy)
    seeds = workloads.job_seeds(seed, 4096)
    out_dir.mkdir(parents=True, exist_ok=True)
    job_dir = out_dir / f"job-{name}"
    if trace:
        metrics, jobs, problems, info = run_traced(
            workload, seeds, seconds, job_dir, out_dir / f"spans-{name}-seed{seed}.npz")
        units = {k: layers.PER_LAYER[k][0] for k in metrics}
    else:
        metrics, jobs, problems, info = run_untraced(workload, seeds, seconds, job_dir, src, setup_probes)
        units = dict(END_TO_END)
    failed = [r for r in jobs if not r.ok]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "work_unit": workload.work_unit,
        "load": "closed loop, one client, one thread",
        "attempted": len(jobs),
        "failed": len(failed),
        "failed_frac": len(failed) / len(jobs),
        "problems": [f"seed {r.seed}: {p}" for r in failed for p in r.problems],
        "trace_problems": problems,
        "jobs": [{"seed": r.seed, "wall_s": r.wall_s, "work": r.work, "sha256": r.digest, "ok": r.ok}
                 for r in jobs],
        "info": {"first_job_sha256": jobs[0].digest, **info},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "layer_map": {k: {"moves": m, "on": w} for k, (m, w) in layers.LAYER_MAP.items()},
    }


def summary_line(record) -> str:
    return json.dumps({
        "correct": not record["problems"] and not record["trace_problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })
