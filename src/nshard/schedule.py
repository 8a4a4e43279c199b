"""Angle and contraction-factor schedule driving the nested construction.

The schedule is a single recursion on angles,

    theta_base(1) = arctan(1),
    theta_shift(i) = (arctan(8) - arctan(1)) / 2**i,
    theta_base(i+1) = theta_base(i) + theta_shift(i),

from which two derived sequences are computed (writing T_i = tan(theta_base(i))):

    delta(i)   = (T_{i+1} - T_i) / (2 T_{i+1} + T_i) / 2
    epsilon(i) = 1 - (3/2) / (2 T_{i+1} + T_i)

delta(i) is the per-level interval contraction factor, epsilon(i) the value of
the level-i wedge at the mouth of its child interval.  theta_base increases
monotonically from pi/4 to arctan(8), so all piece slopes produced downstream,
which are cotangents of these angles, stay inside [1/8, 1].
"""

from __future__ import annotations

import contextlib
import math
import threading


# The deepest binary64 prefix that interval and build_r accept; deeper ones
# need the extended backend.  Absolute endpoints already collapse (lo == hi)
# from depth 10 on, where widths fall under one ulp of values near 1/2.
DEPTH_CAP = 24


class AngleSchedule:
    """Lazily evaluated, memoized schedule, and the one owner of its number type.

    backend="binary64" computes in IEEE doubles; backend="extended" computes
    with mpmath at ``dps`` significant digits (used as a reference path in
    tests and for constructions deeper than the binary64 depth cap).  Callers
    compute on the schedule's numbers through its kit, fixed by the backend:
    ``math`` (the ``math`` or ``mpmath`` module), ``dtype`` (``float`` or
    ``object``, for numpy arrays), ``one`` and ``check_depth(n)``.  Every
    extended operation runs under ``context()``.
    Immutable after construction and safe to share across threads.
    """

    def __init__(self, backend: str = "binary64", dps: int = 50):
        if backend == "binary64":
            self.math, self.dtype, self.one, self._cap = math, float, 1.0, DEPTH_CAP
        elif backend == "extended":
            import mpmath

            self.math, self.dtype, self.one, self._cap = mpmath, object, mpmath.mpf(1), math.inf
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.dps = dps
        with self.context():
            self._atan1 = self.math.atan(self.one)
            self._atan8 = self.math.atan(8 * self.one)
            self._diff = self._atan8 - self._atan1
        self._lock = threading.Lock()
        self._tan = {}
        self._delta = {}
        self._eps = {}

    def context(self):
        """Precision context for arithmetic on this schedule's numbers.

        A no-op for binary64; for the extended backend it activates the
        mpmath working precision, which governs arithmetic at operation time.
        """
        if self.backend == "binary64":
            return contextlib.nullcontext()
        return self.math.workdps(self.dps)

    def check_depth(self, n: int) -> None:
        """Refuse prefixes deeper than this schedule's numbers resolve."""
        if n > self._cap:
            raise ValueError(f"depth {n} exceeds the binary64 cap {DEPTH_CAP}; "
                             "build with an extended-precision schedule")

    # -- raw angles ---------------------------------------------------------

    def theta(self, i: int):
        """Return (theta_base(i), theta_shift(i)) for i >= 1."""
        self._check_index(i)
        return self.theta_base(i), self.theta_shift(i)

    def theta_base(self, i: int):
        self._check_index(i)
        if i == 1:
            return self._atan1
        # Closed form of the summed recursion; approaches atan(8) from below.
        with self.context():
            return self._atan8 - self.math.ldexp(self._diff, 1 - i)

    def theta_shift(self, i: int):
        self._check_index(i)
        with self.context():
            return self.math.ldexp(self._diff, -i)

    # -- tangents and cotangents -------------------------------------------

    def tan_base(self, i: int):
        """tan(theta_base(i)); exactly 1 at i=1 by the arctan(1) anchor."""
        self._check_index(i)
        t = self._tan.get(i)
        if t is None:
            with self.context():
                t = self.one if i == 1 else self.math.tan(self.theta_base(i))
            with self._lock:
                self._tan[i] = t
        return t

    def cot_base(self, i: int):
        """cot(theta_base(i)); decreases from 1 toward 1/8."""
        return 1 / self.tan_base(i)

    # -- derived sequences ---------------------------------------------------

    def delta(self, i: int):
        """Contraction factor of level i, in (0, 7/32]."""
        self._check_index(i)
        d = self._delta.get(i)
        if d is None:
            with self.context():
                t1 = self.tan_base(i)
                t2 = self.tan_base(i + 1)
                # tan(a+s) - tan(a) = tan(s) * (1 + tan(a) tan(a+s)); the
                # product form keeps delta positive at large i where t2 - t1
                # underflows.
                ts = self.math.tan(self.theta_shift(i))
                d = ts * (1 + t1 * t2) / (2 * t2 + t1) / 2
            with self._lock:
                self._delta[i] = d
        return d

    def epsilon(self, i: int):
        """Wedge mouth value of level i, in [1/2, 1)."""
        self._check_index(i)
        e = self._eps.get(i)
        if e is None:
            with self.context():
                t1 = self.tan_base(i)
                t2 = self.tan_base(i + 1)
                e = 1 - (3 * self.one / 2) / (2 * t2 + t1)
            with self._lock:
                self._eps[i] = e
        return e

    def delta_product(self, n: int):
        """prod_{j <= n} delta(j), the width of a depth-n nested interval."""
        if n < 0:
            raise ValueError("n must be >= 0")
        with self.context():
            p = self.one
            for j in range(1, n + 1):
                p = p * self.delta(j)
        return p

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _check_index(i) -> None:
        if not isinstance(i, int) or isinstance(i, bool) or i < 1:
            raise ValueError(f"schedule index must be an integer >= 1, got {i!r}")


# Indices above ~55 are numerically at the arctan(8) fixed point in binary64:
# theta_shift underflows below half an ulp of theta_base, so theta_base stops
# moving while delta, computed through tan(theta_shift), stays positive.
DEFAULT_SCHEDULE = AngleSchedule()
