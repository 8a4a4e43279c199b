"""The benchmark's workloads: what one job runs, how its outputs are checked
and how much work it counts.

Every job goes through nshard's public API in-process: ``nshard.cli.main``
for ``certify`` and ``montecarlo``, ``nshard.verify.invariant_suite`` for
``invariants``.  The program sees only the generated arguments; job seeds
come from the workload seed and nothing else.  Module attributes are looked
up at call time so that the tracer's patches take effect.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy as np

import nshard.cli
import nshard.verify

# The paper's stationarity constant c: a certificate must show a decrease of
# delta * c.  Kept here, not read from nshard, so the check is independent.
PAPER_C = 1.0 / 100.0


@dataclass
class JobResult:
    seed: int
    wall_s: float
    work: int
    digest: str
    bytes_written: int
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def job_seeds(seed: int, n: int) -> List[int]:
    """The first n job seeds of a workload seed; a prefix of any longer list."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


def _fresh_dir(out: Path) -> Path:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    return out


def _digest(out: Path, extra: bytes = b"") -> tuple:
    """sha256 over the job's files (name and bytes, sorted) plus extra bytes."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        size += len(data)
        h.update(p.name.encode() + b"\0" + data + b"\0")
    h.update(extra)
    return h.hexdigest(), size


def _run_cli(argv: List[str], out: Path):
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = nshard.cli.main(argv + ["--out", out.as_posix()])
    wall = time.perf_counter() - t0
    problems = [] if rc == 0 else [f"exit code {rc}: {stderr.getvalue().strip()[:200]}"]
    return wall, stdout.getvalue(), problems


class Certify:
    """``nshard run``: one subgradient-flow certificate per iterate.

    About 1000 sequential scalar oracle calls per certificate on one shared
    small-d instance: stresses the scalar oracle's fixed cost and the flow
    certifier, and bypasses table building, ``locate`` and batched kernels.

    rho = 0.25 keeps the cap scale rho/99 above the flow's Euler step
    delta/1000.  With a cap narrower than one step (rho = 1e-3 at delta = 1)
    the flow steps over the cap cone, and iterates with f in [1, 1.01) go
    uncertified although the ball holds the required decrease.
    """

    name = "certify"
    work_unit = "certificates/s"

    def __init__(self, d=10, k=4, rho=0.25, T=2, delta=1.0):
        self.d, self.k, self.rho, self.T, self.delta = d, k, rho, T, delta

    def argv(self, seed: int) -> List[str]:
        return ["run", "--mode", "desk", "--d", str(self.d), "--k", str(self.k),
                "--rho", repr(self.rho), "--algo", "pgd", "--T", str(self.T),
                "--delta", repr(self.delta), "--seed", str(seed)]

    def first_instance(self, seed: int) -> dict:
        return {"kind": "capped", "d": self.d, "N": self.k + 1, "rho": self.rho, "seed": seed}

    def run(self, seed: int, out: Path) -> JobResult:
        out = _fresh_dir(out)
        wall, stdout, problems = _run_cli(self.argv(seed), out)
        digest, size = _digest(out, stdout.encode())
        work = 0
        if not problems:
            with open(out / "summary.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.T:
                problems.append(f"{len(rows)} summary rows, expected {self.T}")
            for r in rows:
                f, cert, witness = float(r["f"]), int(r["certified"]), float(r["witness_value"])
                target = f - self.delta * PAPER_C
                work += cert in (0, 1)
                if cert == 1 and not witness < target:
                    problems.append(f"t={r['t']}: certified but witness {witness!r} >= target {target!r}")
                if f >= 1.0 and cert != 1:
                    problems.append(f"t={r['t']}: f={f!r} >= 1 not certified "
                                    f"(witness {witness!r}, target {target!r})")
        return JobResult(seed, wall, work, digest, size, problems)


class MonteCarlo:
    """``nshard mc``: hitting, progress and concentration estimates.

    Every run draws fresh bits, so no work is shared between runs: 2 * runs
    table builds and 2 * runs * T oracle queries (half 1D, half scalar at
    dimension d), plus runs * T ``locate`` calls.  pgd makes each step depend
    on the oracle's answer.  Bypasses the flow certifier.
    """

    name = "montecarlo"
    work_unit = "queries/s"

    def __init__(self, k=5, rho=1e-4, T=50, d=200, runs=100):
        self.k, self.rho, self.T, self.d, self.runs = k, rho, T, d, runs

    def argv(self, seed: int) -> List[str]:
        return ["mc", "--mode", "desk", "--k", str(self.k), "--rho", repr(self.rho),
                "--T", str(self.T), "--d", str(self.d), "--algo", "pgd",
                "--runs", str(self.runs), "--seed", str(seed)]

    def first_instance(self, seed: int) -> dict:
        return {"kind": "1d", "N": self.k + 1, "seed": seed}

    def run(self, seed: int, out: Path) -> JobResult:
        out = _fresh_dir(out)
        wall, stdout, problems = _run_cli(self.argv(seed), out)
        digest, size = _digest(out, stdout.encode())
        if not problems:
            with open(out / "mc_report.jsonl") as fh:
                rows = [json.loads(line) for line in fh]
            if not rows:
                problems.append("empty mc_report.jsonl")
            for r in rows:
                est, lo, hi = r["estimate"], r["wilson_lo"], r["wilson_hi"]
                if not 0.0 <= est <= 1.0:
                    problems.append(f"{r['check']}: estimate {est!r} outside [0, 1]")
                if not lo <= est <= hi:
                    problems.append(f"{r['check']}: estimate {est!r} outside [{lo!r}, {hi!r}]")
                if not r["vacuous"] and r["bound"] < lo:
                    problems.append(f"{r['check']}: bound {r['bound']!r} below wilson_lo {lo!r}")
        return JobResult(seed, wall, 2 * self.runs * self.T, digest, size, problems)


class Invariants:
    """``invariant_suite`` at the acceptance dimensions, a fifth of its sample counts.

    Batched ``embed`` kernels on arrays of rows * d * 8 bytes (8 MB at
    20 000 rows and d = 50: above the per-core L2, below the L3) and
    ``n_instances * dual_points`` scalar ``eval_r`` calls.  No oracle loop
    and no flow.
    """

    name = "invariants"
    work_unit = "points/s"

    def __init__(self, **suite):
        defaults = dict(lipschitz_pairs=20_000, stationarity_points=20_000, dims=(2, 10, 50))
        self.params = nshard.verify.SuiteParams(**{**defaults, **suite})

    def first_instance(self, seed: int) -> dict:
        return {"kind": "table", "N": self.params.max_depth, "seed": seed}

    def run(self, seed: int, out: Path) -> JobResult:
        out = _fresh_dir(out)
        t0 = time.perf_counter()
        report = nshard.verify.invariant_suite(seed=seed, params=self.params)
        wall = time.perf_counter() - t0
        report.write_csv(out / "report.csv")
        report.write_jsonl(out / "report.jsonl")
        digest, size = _digest(out)
        problems = [] if report.all_passed else [
            "all_passed is false: " + ", ".join(f"{c.name}={c.measured!r}" for c in report.failed())]
        p = self.params
        work = len(p.dims) * (2 * p.lipschitz_pairs + p.stationarity_points)
        return JobResult(seed, wall, work, digest, size, problems)


WORKLOADS = {w.name: w for w in (Certify, MonteCarlo, Invariants)}


def make(name: str, toy: bool = False):
    """The workload at benchmark size, or at toy size for the smoke test."""
    if not toy:
        return WORKLOADS[name]()
    return {
        "certify": lambda: Certify(d=4, k=2, T=3, delta=0.1),
        "montecarlo": lambda: MonteCarlo(k=2, rho=1e-3, T=3, d=10, runs=100),
        "invariants": lambda: Invariants(
            n_instances=2, max_depth=4, interval_depth=2, separation_draws=5, dual_points=20,
            dims=(2, 3), lipschitz_pairs=100, stationarity_points=100, fd_points=1, fd_dirs=1),
    }[name]()
