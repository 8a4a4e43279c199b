"""Tracer that wraps nshard's public functions from outside the package.

A span target records one span per call (name, start, end, parent span) in
flat arrays kept in memory; a count target only counts calls, keyed by the
enclosing span, for functions too cheap to time (schedule lookups, interval
descent).  A function is patched in every nshard module that binds it, so a
call through ``verify.build_r`` and one through ``hard1d.build_r`` are both
seen; a method is patched on its class.  A target that no longer exists is
listed in ``missing`` and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

SPAN, COUNT = "span", "count"


def _rows(tracer, name, args, kwargs, result):
    X = np.asarray(args[1] if len(args) > 1 else kwargs["X"])
    tracer.extra[name + ".rows"] += X.shape[0]
    tracer.extra["embed.batch.bytes_in"] += X.shape[0] * X.shape[1] * 8


def _flow(tracer, name, args, kwargs, result):
    tracer.extra["verify.flow.steps"] += result.steps
    tracer.extra["verify.flow.stalls"] += result.status == "stalled"


def _certificate(tracer, name, args, kwargs, result):
    tracer.extra["verify.certificate.ok"] += bool(result.ok)


# (trace name, "module:attribute" or "module:Class.method", kind, result hook)
TARGETS = [
    *[("schedule", f"nshard.schedule:AngleSchedule.{m}", COUNT, None)
      for m in ("theta_base", "theta_shift", "tan_base", "cot_base", "delta", "epsilon", "delta_product")],
    ("intervals.interval", "nshard.intervals:interval", COUNT, None),
    ("intervals.descend", "nshard.intervals:descend", COUNT, None),
    ("intervals.locate", "nshard.intervals:locate", SPAN, None),
    ("hard1d.build_r", "nshard.hard1d:build_r", SPAN, None),
    ("hard1d.eval_r", "nshard.hard1d:eval_r", SPAN, None),
    ("hard1d.table_call", "nshard.hard1d:PiecewiseAffine1D.__call__", COUNT, None),
    ("hard1d.oracle1d", "nshard.hard1d:OneDimInstance.value_and_subgrad", SPAN, None),
    ("embed.build_h", "nshard.embed:build_h", SPAN, None),
    ("embed.build_instance", "nshard.embed:build_instance", SPAN, None),
    ("embed.value_and_subgrad", "nshard.embed:HardInstance.value_and_subgrad", SPAN, None),
    ("embed.min_subgrad", "nshard.embed:HardInstance.min_subgrad", COUNT, None),
    ("embed.eval_f_batch", "nshard.embed:HardInstance.eval_f_batch", SPAN, _rows),
    ("embed.min_subgrad_norm_batch", "nshard.embed:HardInstance.min_subgrad_norm_batch", SPAN, _rows),
    ("oracles.run", "nshard.oracles:run", SPAN, None),
    ("oracles.query", "nshard.oracles:query", COUNT, None),
    *[("oracles.propose", f"nshard.oracles:{c}.propose", COUNT, None)
      for c in ("SubgradientDescent", "PerturbedGD", "RandomSearch", "GridSearch")],
    ("verify.progress_process", "nshard.verify:progress_process", SPAN, None),
    ("verify.mc_hitting", "nshard.verify:mc_hitting", SPAN, None),
    ("verify.concentration", "nshard.verify:concentration_check", SPAN, None),
    ("verify.flow", "nshard.verify:subgradient_flow", SPAN, _flow),
    ("verify.certificate", "nshard.verify:local_decrease_certificate", SPAN, _certificate),
    ("verify.invariant_suite", "nshard.verify:invariant_suite", SPAN, None),
    ("cli", "nshard.cli:main", SPAN, None),
]


class Tracer:
    """Spans and counts of one job; use as a context manager around the job."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.counts = defaultdict(int)  # (name id, enclosing span's name id or -1) -> calls
        self.extra = defaultdict(int)  # counts taken from arguments and results
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    # -- installing ----------------------------------------------------------

    def __enter__(self):
        for name, where, kind, hook in self.targets:
            found = _resolve(where)
            if found is None:
                self.missing.append(where)
                continue
            owner, attr, fn, bindings = found
            nid = self._id(name)
            wrapper = self._span(nid, name, fn, hook) if kind == SPAN else self._count(nid, fn)
            for holder in bindings:
                self._undo.append((holder, attr, holder.__dict__.get(attr, _ABSENT)))
                setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, attr, old in reversed(self._undo):
            if old is _ABSENT:
                delattr(holder, attr)
            else:
                setattr(holder, attr, old)
        self._undo.clear()
        return False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, nid, name, fn, hook):
        start, end, name_id, parent, stack = self.start, self.end, self.name_id, self.parent, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            start.append(0.0)
            end.append(0.0)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count(self, nid, fn):
        counts, name_id, stack = self.counts, self.name_id, self._stack

        def wrapper(*args, **kwargs):
            counts[nid, name_id[stack[-1]] if stack else -1] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- reading -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def totals(self) -> dict:
        """Raw per-job totals: '<name>.calls', '<name>.self_s', '<name>.under.<parent>'
        and the hook counts.  Self time is a span's duration minus its children's."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        out = defaultdict(float)
        for nid, name in enumerate(self.names):
            out[name + ".calls"] += int(calls[nid])
            out[name + ".self_s"] += float(self_s[nid])
        for (nid, pid), c in self.counts.items():
            name = self.names[nid]
            out[name + ".calls"] += c
            if pid >= 0:
                out[f"{name}.under.{self.names[pid]}"] += c
        # span counts by parent, for ratios such as queries per flow step
        pairs = a["name_id"][has_parent].astype(np.int64) * n_names + a["name_id"][a["parent"][has_parent]]
        for key, c in zip(*np.unique(pairs, return_counts=True)):
            out[f"{self.names[key // n_names]}.under.{self.names[key % n_names]}"] += int(c)
        out.update(self.extra)
        out["trace.spans"] = len(dur)
        return dict(out)


_ABSENT = object()


def _resolve(where: str):
    """(owner, attribute, original, objects to patch), or None if it is gone."""
    module_name, _, path = where.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        fn = getattr(owner, attr, None) if isinstance(owner, type) else None
        return None if fn is None else (owner, attr, fn, [owner])
    fn = getattr(module, attr, None)
    if fn is None:
        return None
    bindings = [m for name, m in sorted(sys.modules.items())
                if (name == "nshard" or name.startswith("nshard.")) and m is not None
                and getattr(m, attr, None) is fn]
    return module, attr, fn, bindings


def save(path, jobs) -> None:
    """Write the spans of several traced jobs to one .npz file."""
    arrays = [t.arrays() for t in jobs]
    np.savez(
        path,
        names=np.array(jobs[0].names),
        job=np.concatenate([np.full(len(a["start"]), j, dtype=np.int32) for j, a in enumerate(arrays)]),
        **{k: np.concatenate([a[k] for a in arrays]) for k in ("start", "end", "name_id", "parent")},
    )
