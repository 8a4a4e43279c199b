"""Command-line surface: build instances, run algorithms, certify, experiment.

All randomness flows from one root seed: each command derives independent
streams via numpy SeedSequence.spawn in a fixed order (bit string, cap
vector, algorithm; for ``mc``, one seed per experiment, which spawns one
Generator per role), so identical configs, a config.json that a command
wrote among them, replay bit-identically.  Data files carry no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from .embed import build_h, build_instance, save_instance
from .hard1d import schedule_params, write_profile_csv, write_records, write_table
from .intervals import bits_to_str, random_bits
from .oracles import ALGORITHMS, make_algorithm, run
from .schedule import AngleSchedule
from .verify import (
    concentration_check,
    invariant_suite,
    local_decrease_certificate,
    mc_hitting,
    progress_process,
)


@dataclass
class RunConfig:
    """Every command's settings, with their defaults; each field but
    ``mutate`` is both a ``--flag`` and a ``--config`` key."""

    mode: str = "desk"
    T: int = 30
    d: int = 10
    gamma: float = 1.0
    k: int = 4
    rho: float = 1e-3
    algo: str = "pgd"
    eta: float = 0.1
    noise: float = 0.01
    runs: int = 200
    seed: int = 0
    out: str = "."
    precision: str = "binary64"
    delta: float = 1.0
    resolution: float = 0.25
    radius: float = 1.0
    mutate: bool = False


TYPES = typing.get_type_hints(RunConfig)
KEYS = [f.name for f in fields(RunConfig) if f.name != "mutate"]
_schedule = functools.cache(AngleSchedule)  # one schedule per precision, its caches kept across commands
CHOICES = {
    "mode": ["theory", "desk"],
    "algo": list(ALGORITHMS),
    "precision": ["binary64", "extended"],
}


def _resolve_config(args) -> RunConfig:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        written = ("log2_inv_rho", "resolved_k", "resolved_N", "mutate")  # _write_config's keys beside KEYS
        derived = {key: cfg.pop(key) for key in written if key in cfg}
        unknown = set(cfg) - set(KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in cfg.items():
            # bool is an int subclass; a float field also takes an integer
            want = (int, float) if TYPES[key] is float else TYPES[key]
            if isinstance(val, bool) or not isinstance(val, want):
                raise ValueError(f"config key {key!r} must be {TYPES[key].__name__}, got {val!r}")
        # as _write_config writes them for these settings: their ScheduleParams, in order, and mutate false
        for key, want in zip(written, (*_params(RunConfig(**cfg)), False) if derived else ()):
            if key in derived and repr(derived[key]) != repr(want):
                raise ValueError(f"config key {key!r} is {derived[key]!r}, but these settings write {want!r}")
    for key in KEYS:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return RunConfig(mutate=getattr(args, "mutate", False), **cfg)


def _require_out(cfg: RunConfig) -> str:
    if not os.path.isdir(cfg.out):
        raise FileNotFoundError(f"output directory does not exist: {cfg.out}")
    return cfg.out


def _params(cfg: RunConfig):
    if cfg.mode == "theory":
        return schedule_params(T=cfg.T, gamma=cfg.gamma, mode="theory")
    return schedule_params(mode="desk", k=cfg.k, rho=cfg.rho)


def _instance(cfg: RunConfig, bits_ss, w_ss):
    """Instance from the first two children of the root seed's spawn, (bits, cap)."""
    params = _params(cfg)
    sched = _schedule(cfg.precision)
    bits = random_bits(params.N, np.random.default_rng(bits_ss))
    if cfg.mode == "theory":
        # rho exists only in log space here; the cap cannot be represented.
        inst = build_h(cfg.d, bits, sched)
    else:
        inst = build_instance(cfg.d, bits, cfg.rho, seed=int(w_ss.generate_state(1)[0]), sched=sched)
    return inst, params


def _algorithm(cfg: RunConfig):
    """The configured algorithm with its own flags (eta, noise, radius, resolution); errors name the flag."""
    flags = {"sgd": {"eta0": "eta"}, "pgd": {"eta0": "eta", "noise_scale": "noise"},  # parameter: flag
             "random": {"radius": "radius"}, "grid": {"resolution": "resolution"}}.get(cfg.algo, {})
    try:
        return make_algorithm(cfg.algo, **{p: getattr(cfg, flag) for p, flag in flags.items()})
    except ValueError as exc:  # "noise_scale must be ..." -> "--noise must be ..."
        param, _, rest = str(exc).partition(" ")
        raise (ValueError(f"--{flags[param]} {rest}") if param in flags else exc) from None


def _write_config(cfg: RunConfig, params, path) -> None:
    payload = {**vars(cfg), "log2_inv_rho": params.log2_inv_rho, "resolved_k": params.k, "resolved_N": params.N}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_build(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    inst, params = _instance(cfg, *np.random.SeedSequence(cfg.seed).spawn(2))
    save_instance(inst, os.path.join(out, "instance.txt"))
    write_profile_csv(os.path.join(out, "hbar_profile.csv"), inst.hbar)
    _write_slices(inst, os.path.join(out, "f_slices.csv"))
    _write_config(cfg, params, os.path.join(out, "config.json"))
    cap = "capped" if inst.has_cap else "cap-free"
    print(f"built {cap} instance: d={inst.d} N={len(inst.bits)} bits={bits_to_str(inst.bits)} "
          f"k={params.k} log2(1/rho)={params.log2_inv_rho:g}")
    return 0


def _write_slices(inst, path, n: int = 2001) -> None:
    xs = np.linspace(-1.0, 2.0, n)
    last = np.tile(inst.x_star, (n, 1))
    last[:, -1] = xs
    first = np.tile(inst.x_star, (n, 1))
    first[:, 0] = xs
    write_table(path, ["coord", "f_along_last_axis", "f_along_first_axis"],
                zip(xs, inst.eval_f_batch(last), inst.eval_f_batch(first)))


def cmd_check(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    report = invariant_suite(seed=cfg.seed, mutate="slope" if cfg.mutate else None,
                             sched=_schedule(cfg.precision))
    report.write_csv(os.path.join(out, "report.csv"))
    report.write_jsonl(os.path.join(out, "report.jsonl"))
    print(report.summary())
    return 0 if report.all_passed else 1


def cmd_run(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    if not cfg.delta >= 0:
        raise ValueError(f"--delta must be non-negative (0 turns certificates off), got {cfg.delta!r}")
    if cfg.delta > 1:  # the certificates take delta in (0, 1]; refuse it before the run
        raise ValueError(f"--delta must be at most 1, got {cfg.delta!r}")
    bits_ss, w_ss, algo_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    inst, params = _instance(cfg, bits_ss, w_ss)
    algo = _algorithm(cfg)
    traj = run(algo, inst, np.zeros(inst.d), cfg.T, seed=int(algo_ss.generate_state(1)[0]))
    Z = progress_process(traj.points[:, -1], inst.bits, _schedule(cfg.precision))
    if cfg.delta > 0:
        certs = [local_decrease_certificate(inst, x, cfg.delta) for x in traj.points]
        certified, witness_vals = [int(c.ok) for c in certs], [c.witness_value for c in certs]
    else:  # certificates off
        certified, witness_vals = [-1] * traj.T, [float("nan")] * traj.T
    steps, norms = range(1, traj.T + 1), traj.subgrad_norms
    write_records(os.path.join(out, "trajectory.jsonl"),
                  [{"t": t, "x": x, "f": f, "subgrad_norm": n}
                   for t, x, f, n in zip(steps, traj.points.tolist(), traj.values.tolist(), norms.tolist())])
    write_table(os.path.join(out, "summary.csv"),
                ["t", "f", "subgrad_norm", "f_ge_1", "depth", "certified", "witness_value"],
                zip(steps, traj.values, norms, traj.values >= 1.0, Z[1:], certified, witness_vals))
    _write_config(cfg, params, os.path.join(out, "config.json"))
    print(f"ran {cfg.algo} for T={cfg.T}: min f={traj.values.min():.6g} "
          f"final depth={Z[-1]} certified={certified.count(1)}/{traj.T}")
    return 0


def cmd_mc(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    params = _params(cfg)
    algo = _algorithm(cfg)
    hit_ss, conc_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    hit = mc_hitting(
        algo,
        T=cfg.T,
        k=params.k,
        N=params.N,
        n_runs=cfg.runs,
        seed=int(hit_ss.generate_state(1)[0]),
        log2_inv_rho=params.log2_inv_rho,
        sched=_schedule(cfg.precision),
    )
    conc, _ = concentration_check(
        d=cfg.d,
        T=cfg.T,
        n_runs=cfg.runs,
        seed=int(conc_ss.generate_state(1)[0]),
        algorithm=algo,
        N=params.N,
        sched=_schedule(cfg.precision),
    )
    rows = hit + [conc]
    columns = ["check", "estimate", "wilson_lo", "wilson_hi", "bound", "vacuous"]
    write_table(os.path.join(out, "mc_report.csv"), columns, [[r[c] for c in columns] for r in rows])
    write_records(os.path.join(out, "mc_report.jsonl"), [dict(sorted(r.items())) for r in rows])
    _write_config(cfg, params, os.path.join(out, "config.json"))
    for r in rows:
        flag = " (vacuous bound)" if r["vacuous"] else ""
        print(f"{r['check']}: estimate={r['estimate']:.6g} bound={r['bound']:.6g}{flag}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its entries")
    for key in KEYS:
        p.add_argument(f"--{key}", type=TYPES[key], choices=CHOICES.get(key))


@functools.cache  # built once per process
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nshard", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build", "check", "run", "mc"):
        sp = sub.add_parser(name)
        _add_common(sp)
        if name == "check":
            sp.add_argument("--mutate", action="store_true", help="inject a slope fault (suite must fail)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        handler = {"build": cmd_build, "check": cmd_check, "run": cmd_run, "mc": cmd_mc}[args.command]
        return handler(cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
