"""Near-isometry rigidity explorer for pairs of positive definite operators.

For SPD matrices A, B the hypothesis margin is the smallest delta with
(1-delta)^2 B^2 <= A^2 <= (1+delta)^2 B^2, equivalently the largest relative
deviation of |Ax| from |Bx|; the conclusion value is the operator norm of
(A - B) B^{-1}, the smallest epsilon with |Ax - Bx| <= eps |Bx| for all x.
The search maximizes the conclusion subject to a margin cap, enforcing the
cap exactly by clipping the spectrum of B^{-1} A^2 B^{-1}.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RrtInstance",
    "hypothesis_margin",
    "conclusion_value",
    "worst_case_search",
    "delta_of_eps_curve",
]


def _as_spd(a):
    a = np.asarray(a, dtype=float)
    a = (a + a.T) / 2.0
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0.0:
        raise ValueError(f"matrix is not positive definite: eigenvalue {w[0]!r}")
    return a


def hypothesis_margin(a, b):
    """Smallest delta with | |Ax| - |Bx| | <= delta |Bx| for all x.

    Equals max(1 - s_min, s_max - 1) over the singular values s of A B^{-1}.
    """
    a = _as_spd(a)
    b = _as_spd(b)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    s = np.linalg.svd(a @ np.linalg.inv(b), compute_uv=False)
    return max(1.0 - float(s[-1]), float(s[0]) - 1.0, 0.0)


def conclusion_value(a, b):
    """Smallest eps with |Ax - Bx| <= eps |Bx| for all x."""
    a = _as_spd(a)
    b = _as_spd(b)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(np.linalg.svd((a - b) @ np.linalg.inv(b), compute_uv=False)[0])


@dataclass
class RrtInstance:
    m: int
    a: np.ndarray
    b: np.ndarray
    delta_measured: float
    epsilon_measured: float

    def as_dict(self):
        return {
            "m": self.m,
            "A": self.a.tolist(),
            "B": self.b.tolist(),
            "delta_measured": self.delta_measured,
            "epsilon_measured": self.epsilon_measured,
        }


def _build_pair(m, delta, log_diag, sym):
    """Feasible pair from free parameters: B diagonal, spectrum of B^{-1}A^2B^{-1}
    clipped into [(1-delta)^2, (1+delta)^2], then A recovered as an SPD root."""
    b = np.diag(np.exp(np.concatenate([[0.0], log_diag])))
    t = np.eye(m) + (sym + sym.T) / 2.0
    w, v = np.linalg.eigh((t + t.T) / 2.0)
    clipped = np.clip(w**2, (1.0 - delta) ** 2, (1.0 + delta) ** 2)
    c = (v * clipped) @ v.T
    a_sq = b @ c @ b
    w2, v2 = np.linalg.eigh((a_sq + a_sq.T) / 2.0)
    a = (v2 * np.sqrt(np.clip(w2, 0.0, None))) @ v2.T
    return a, b


def _anneal_restart(args):
    m, delta, steps, seed, t0, ratio = args
    rng = np.random.default_rng(seed)
    log_diag = rng.uniform(-1.0, 1.0, size=m - 1)
    sym = rng.uniform(-delta, delta, size=(m, m))
    a, b = _build_pair(m, delta, log_diag, sym)
    cur = conclusion_value(a, b)
    best = (cur, a, b)
    temp = t0
    for _ in range(steps):
        cand_diag = log_diag + rng.normal(0.0, 0.3 * temp, size=m - 1)
        cand_sym = sym + rng.normal(0.0, 0.5 * delta * temp, size=(m, m))
        a, b = _build_pair(m, delta, cand_diag, cand_sym)
        val = conclusion_value(a, b)
        if val > best[0]:
            best = (val, a, b)
        if val > cur or rng.random() < math.exp(min((val - cur) / max(temp, 1e-12), 0.0)):
            cur = val
            log_diag, sym = cand_diag, cand_sym
        temp *= ratio
    return best


def worst_case_search(
    m, delta, budget=10000, seed=0, restarts=50, t0=1.0, ratio=0.95, jobs=1
):
    """Maximize the conclusion value over pairs with hypothesis margin <= delta.

    Annealing over (diagonal B, symmetric perturbation); the margin constraint
    is enforced exactly by the spectral clipping in the parametrization.
    Each restart evaluates its initial pair and then ``budget // restarts``
    annealing steps, so a budget below ``restarts`` anneals nothing.
    Deterministic for fixed seed regardless of worker count.
    """
    if m < 2:
        raise ValueError("search needs m >= 2; the one-dimensional case is the identity")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if delta == 0.0:
        eye = np.eye(m)
        return RrtInstance(m, eye, eye, 0.0, 0.0)
    steps = budget // max(restarts, 1)
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    tasks = [
        (m, delta, steps, int(s.generate_state(1)[0]), t0, ratio) for s in seeds
    ]
    results = None
    if jobs > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_anneal_restart, tasks))
        except (OSError, PermissionError, RuntimeError):
            results = None
    if results is None:
        results = [_anneal_restart(t) for t in tasks]
    best_idx = max(range(len(results)), key=lambda i: (results[i][0], -i))
    val, a, b = results[best_idx]
    measured = hypothesis_margin(a, b)
    if measured > delta + 1e-9:
        raise AssertionError(f"search produced an infeasible pair: margin {measured!r}")
    return RrtInstance(m, a, b, measured, val)


def delta_of_eps_curve(m, eps_grid, budget=10000, seed=0, bisect_steps=8, jobs=1):
    """Empirical inverse: for each eps, the largest tested delta whose worst
    case stays at or below eps.  Returns a list of (eps, delta, worst) rows."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    rows = []
    for i, eps in enumerate(eps_grid):
        if not 0.0 < eps < 1.0:
            raise ValueError("eps grid points must lie in (0,1)")
        if m == 1:
            # One-dimensional identity: margin and conclusion coincide, and
            # A = (1+eps) B is the extremal witness.
            witness = RrtInstance(
                1, np.array([[1.0 + eps]]), np.array([[1.0]]), float(eps), float(eps)
            )
            rows.append(
                {
                    "eps": float(eps),
                    "delta": float(eps),
                    "worst": float(eps),
                    "instance": witness.as_dict(),
                }
            )
            continue
        lo, hi = 0.0, eps
        worst_at_lo = 0.0
        witness = None
        for step in range(bisect_steps):
            mid = (lo + hi) / 2.0
            inst = worst_case_search(
                m, mid, budget=budget, seed=seed + 1000 * i + step, jobs=jobs
            )
            if inst.epsilon_measured <= eps:
                lo, worst_at_lo, witness = mid, inst.epsilon_measured, inst
            else:
                hi = mid
        rows.append(
            {
                "eps": float(eps),
                "delta": float(lo),
                "worst": float(worst_at_lo),
                "instance": witness.as_dict() if witness is not None else None,
            }
        )
    return rows
