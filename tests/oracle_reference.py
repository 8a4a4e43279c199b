"""Reference implementations that the package's fast paths are checked against.

* ``min_norm_point``: Wolfe's minimum-norm-point algorithm, a generic
  projection of the origin onto the convex hull of finitely many points.
* ``generators``: a finite generating set of a structured subdifferential,
  for feeding ``min_norm_point``.
* ``composed_value`` / ``composed_subgrad`` / ``composed_1d``: the oracle
  assembled from its separate parts (``eval_h``, ``gap``, ``cap_value``,
  ``subgrad(x).min_norm()`` and the table's ``__call__`` and ``subdiff``),
  which the one-pass ``value_and_subgrad`` must reproduce bit for bit.
"""

import numpy as np

from nshard.embed import cap_value


def min_norm_point(points, tol: float = 1e-10, max_iter: int = 10000) -> np.ndarray:
    """Project the origin onto the convex hull of finitely many points.

    Exact for one or two points; otherwise runs Wolfe's minimum-norm-point
    algorithm to the given tolerance.  Deterministic for a fixed input.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    m = P.shape[0]
    if m == 1:
        return P[0].copy()
    if m == 2:
        a, b = P
        v = b - a
        vv = float(v @ v)
        if vv == 0.0:
            return a.copy()
        t = min(1.0, max(0.0, float(-(a @ v)) / vv))
        return a + t * v

    norms2 = np.einsum("ij,ij->i", P, P)
    idx = [int(np.argmin(norms2))]
    lam = np.array([1.0])
    x = P[idx[0]].copy()
    for _ in range(max_iter):
        dots = P @ x
        j = int(np.argmin(dots))
        xx = float(x @ x)
        if dots[j] >= xx - tol * max(1.0, xx) or j in idx:
            break
        idx.append(j)
        lam = np.append(lam, 0.0)
        while True:
            Q = P[idx]
            k = len(idx)
            M = np.zeros((k + 1, k + 1))
            M[:k, :k] = Q @ Q.T
            M[:k, k] = 1.0
            M[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            alpha = np.linalg.lstsq(M, rhs, rcond=None)[0][:k]
            if np.all(alpha > 1e-12):
                lam = alpha
                x = alpha @ Q
                break
            neg = alpha <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(lam - alpha > 0, lam / (lam - alpha), np.inf)
            theta = float(np.min(ratios[neg])) if np.any(neg) else 1.0
            theta = min(1.0, max(0.0, theta))
            lam = lam + theta * (alpha - lam)
            keep = lam > 1e-12
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            idx = [i for i, k_ in zip(idx, keep) if k_]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = lam @ P[idx]
    return x


def generators(s, ball_points: int = 0, seed: int = 0):
    """Finite generating set of a SubgradientSet (the ball is sampled, so approximate)."""
    ed = np.zeros(s.dim)
    ed[-1] = 1.0
    corners = [s.base + s.ed_lo * ed]
    if s.ed_hi != s.ed_lo:
        corners.append(s.base + s.ed_hi * ed)
    out = list(corners)
    if s.ball_radius > 0.0 and ball_points > 0:
        rng = np.random.default_rng(seed)
        for _ in range(ball_points):
            u = rng.standard_normal(s.dim - 1)
            n = np.linalg.norm(u)
            if n == 0.0:
                continue
            shell = np.zeros(s.dim)
            shell[:-1] = s.ball_radius * u / n
            out.extend(c + shell for c in corners)
    if s.includes_zero:
        out.append(np.zeros(s.dim))
    return out


def composed_value(inst, x) -> float:
    """f(x) = max(h(x) - cap(gap(x - x_star)), 0), or h(x) without a cap."""
    x = np.asarray(x, dtype=float)
    h = inst.eval_h(x)
    if not inst.has_cap:
        return h
    return max(h - cap_value(inst.gap(x - inst.x_star), inst.mu), 0.0)


def composed_subgrad(inst, x) -> np.ndarray:
    """Minimal-norm element of the structured subdifferential."""
    return inst.subgrad(x).min_norm()


def composed_1d(inst, x):
    """Value and minimal-norm slope of a 1D instance from separate table queries."""
    x0 = float(np.asarray(x, dtype=float).reshape(-1)[0])
    lo, hi = inst.pwa.subdiff(x0)
    slope = lo if lo > 0 else hi if hi < 0 else 0.0
    return float(inst.pwa(x0)), np.array([float(slope)])
