"""Instance generators and the class-inclusion search.

Generator kinds:
  constant                  one SPD matrix everywhere
  diagonal-scalar-products  diagonal entries are products of per-axis scalar weights
  rotated-diagonal          a fixed random rotation of a diagonal log-Gaussian field
  log-gaussian              cell-wise matrix exponential of a multiscale Gaussian field
  two-scale-adversarial     two regions with rotated eigenbases and split spectra

The inclusion search probes whether the reverse Hoelder constant can stay
capped while the A-infinity-type determinant constant grows; on a finite grid
it can only report empirical trends, never a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import Grid, WeightField, _reject_nonfinite, _reject_singular
from .weights import ClassReport, class_report, family_scan, ratio_kernel

__all__ = [
    "WeightGenerator",
    "generate",
    "inclusion_search",
    "InclusionSearchResult",
]

GENERATOR_KINDS = (
    "constant",
    "diagonal-scalar-products",
    "rotated-diagonal",
    "log-gaussian",
    "two-scale-adversarial",
)


@dataclass(frozen=True)
class WeightGenerator:
    kind: str
    amplitude: float = 0.5
    correlation: float = 0.5
    seed: int = 0
    mu_amplitude: float = 0.0
    matrix: tuple = None  # constant kind: entries as nested tuples

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")


def _multiscale_scalar(rng, n, L, amplitude, correlation):
    """Gaussian field summed over levels, coarse amplitudes damped by correlation."""
    side = 2**L
    out = np.zeros((side,) * n)
    total = 0.0
    for k in range(L + 1):
        weight = correlation ** (L - k) if correlation > 0.0 else (1.0 if k == L else 0.0)
        total += weight**2
        block = rng.standard_normal((2**k,) * n) * weight
        for axis in range(n):
            block = np.repeat(block, side // 2**k, axis=axis)
        out += block
    return out * (amplitude / np.sqrt(max(total, 1e-300)))


def _sym_expm(sym):
    w, v = np.linalg.eigh(sym)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(w), v)


def _mu_field(rng, n, L, mu_amplitude, correlation):
    if mu_amplitude <= 0.0:
        return np.ones((2**L,) * n)
    return np.exp(_multiscale_scalar(rng, n, L, mu_amplitude, correlation))


def generate(gen, n, N, L, doubling_cap=100.0, retries=8):
    """Reproducible weight field from one generator; retries fresh draws when
    the measure fails the doubling cap, then errors."""
    for attempt in range(retries):
        rng = np.random.default_rng(
            np.random.SeedSequence([gen.seed, attempt])
        )
        field = _generate_once(gen, n, N, L, rng)
        if family_scan(field, ("doubling",), 0).sups["doubling"] <= doubling_cap:
            return field
    raise RuntimeError(
        f"generator {gen.kind!r} exceeded doubling cap {doubling_cap} after {retries} draws"
    )


def _generate_once(gen, n, N, L, rng):
    side = 2**L
    shape = (side,) * n
    mu = _mu_field(rng, n, L, gen.mu_amplitude, gen.correlation)
    grid = Grid(n, L, mu)
    if gen.kind == "constant":
        if gen.matrix is not None:
            base = np.asarray(gen.matrix, dtype=float)
        elif gen.amplitude > 0.0:
            g0 = rng.standard_normal((N, N)) * gen.amplitude
            base = _sym_expm((g0 + g0.T) / 2.0)
        else:
            base = np.eye(N)
        values = np.broadcast_to(base, shape + (N, N)).copy()
        return WeightField(grid, values)
    if gen.kind == "diagonal-scalar-products":
        diag = np.ones(shape + (N,))
        for i in range(N):
            prod = np.ones(shape)
            for axis in range(n):
                line = np.exp(
                    _multiscale_scalar(rng, 1, L, gen.amplitude, gen.correlation)
                )
                expand = line.reshape(
                    tuple(side if a == axis else 1 for a in range(n))
                )
                prod = prod * expand
            diag[..., i] = prod
        values = np.zeros(shape + (N, N))
        idx = np.arange(N)
        values[..., idx, idx] = diag
        return WeightField(grid, values)
    if gen.kind == "rotated-diagonal":
        q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        diag = np.stack(
            [
                np.exp(_multiscale_scalar(rng, n, L, gen.amplitude, gen.correlation))
                for _ in range(N)
            ],
            axis=-1,
        )
        values = np.einsum("ij,...j,kj->...ik", q, diag, q)
        return WeightField(grid, values)
    if gen.kind == "log-gaussian":
        sym = np.zeros(shape + (N, N))
        for i in range(N):
            for j in range(i, N):
                entry = _multiscale_scalar(rng, n, L, gen.amplitude, gen.correlation)
                sym[..., i, j] = entry
                sym[..., j, i] = entry
        return WeightField(grid, _sym_expm(sym))
    if gen.kind == "two-scale-adversarial":
        angle = rng.uniform(0.0, np.pi)
        spread = gen.amplitude
        base = [spread, -spread] if N >= 2 else [spread]
        eigs_a = np.exp(np.array((base + [0.0] * N)[:N]))
        eigs_b = np.exp(-np.array((base + [0.0] * N)[:N]))
        rot = np.eye(N)
        if N >= 2:
            c, s = np.cos(angle), np.sin(angle)
            rot[:2, :2] = [[c, -s], [s, c]]
        mat_a = np.diag(eigs_a)
        mat_b = rot @ np.diag(eigs_b) @ rot.T
        values = np.empty(shape + (N, N))
        half = side // 2 if side > 1 else 1
        values[..., :, :] = mat_a
        if side > 1:
            values[half:] = mat_b
        return WeightField(grid, values)
    raise ValueError(f"unknown generator kind {gen.kind!r}")


@dataclass
class InclusionSearchResult:
    field: WeightField
    report: ClassReport
    objective: float
    trail: list = dc_field(default_factory=list)

    def as_dict(self):
        return {
            "objective": self.objective,
            "report": self.report.as_dict(),
            "trail": list(self.trail),
        }


def _dyadic_constants(grid, sym):
    """Cheap dyadic-only (b2_iv, ainf_ii) pair of the field ``exp(sym)`` on
    ``grid``, used inside the search loop: the ratio kernel over every dyadic
    cube at once, both floored at 1.

    One ``eigh`` of the log-matrices gives every cell the kernel reads:
    ``W = v e^w v^T``, ``W^2 = v e^{2w} v^T`` and ``log det W = sum w``, written
    as the channels of one cell array (``W`` and ``W^2`` row-major, then
    ``log det W``).  The cells are refused as ``WeightField`` refuses them and
    summed up the tree in one pass; no ``WeightField`` is built."""
    w, v = np.linalg.eigh(sym)
    lead, N = w.shape[:-1], w.shape[-1]
    exps = np.empty(lead + (2, N))
    exp_w = np.exp(w, out=exps[..., 0, :])
    np.multiply(exp_w, exp_w, out=exps[..., 1, :])
    cells = np.empty(lead + (2 * N * N + 1,))
    powers = cells[..., :-1].reshape(lead + (2, N, N))
    np.einsum("...ij,...aj,...kj->...aik", v, exps, v, out=powers)
    np.add.reduce(w, axis=-1, out=cells[..., -1])
    _reject_nonfinite(powers[..., 0, :, :])
    _reject_singular(exp_w)
    stack = grid.mu_averages(grid.integrals(cells))
    moments = stack[:, :-1].reshape(-1, 2, N, N)
    avg = {"w": moments[:, 0], "w2": moments[:, 1], "logdet": stack[:, -1]}
    r = ratio_kernel(avg, ("b2_iv", "ainf_ii"))
    return max(1.0, float(r["b2_iv"].max())), max(1.0, float(r["ainf_ii"].max()))


def _propose(sym, rng, temp):
    """A candidate: a copy of ``sym`` with a symmetric Gaussian bump of scale
    ``0.3 * temp`` added to each of ``cells // 8`` cells drawn with repeats,
    in draw order."""
    N = sym.shape[-1]
    cand = sym.copy()
    flat = cand.reshape(-1, N, N)
    touched = rng.integers(0, len(flat), size=max(1, len(flat) // 8))
    bump = rng.normal(0.0, 0.3 * temp, size=(len(touched), N, N))
    np.add.at(flat, touched, (bump + bump.transpose(0, 2, 1)) / 2.0)
    return cand


def _shrink_to_cap(sym, screen, b2_cap):
    """Bisect 12 times for the largest scale s in [0, 1] at which the field
    ``mean + s (sym - mean)`` keeps ``screen(field)[0]``, its b2 constant, within
    the cap; the constant mean field (s = 0) has every constant equal to one.
    Returns the shrunk field and its screen, or None when no scale was accepted."""
    mean = sym.mean(axis=tuple(range(sym.ndim - 2)))
    delta = sym - mean
    lo_s, hi_s, kept = 0.0, 1.0, None
    for _ in range(12):
        mid = (lo_s + hi_s) / 2.0
        screened = screen(mean + mid * delta)
        if screened[0] <= b2_cap:
            lo_s, kept = mid, screened
        else:
            hi_s = mid
    return mean + lo_s * delta, kept


def inclusion_search(n, N, L, b2_cap, budget=2000, seed=0, penalty=100.0, shifts=None):
    """Maximize the A-infinity determinant constant under a reverse Hoelder cap.

    Anneals over cell-wise symmetric log-matrices; iterates violating the cap
    are first shrunk toward the constant field (projection) and then penalized
    by the residual overshoot.  Returns the best field, its full class report
    and the objective trail; the final shrink and the report scan ``shifts``
    translated grids (default ``weights.default_shifts``), as ``check-weight``
    does.  The scalar case is rejected: there the inclusion
    is classical and there is nothing to probe.
    """
    if N < 2:
        raise ValueError("inclusion search needs N >= 2; scalar inclusion is known")
    if not 1.0 < b2_cap < np.inf:
        raise ValueError("b2_cap must be finite and exceed 1")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    rng = np.random.default_rng(seed)
    side = 2**L
    shape = (side,) * n
    grid = Grid(n, L)

    def build(sym):
        return WeightField(grid, _sym_expm(sym))

    def screen(sym):
        return _dyadic_constants(grid, sym)

    def feasible(sym):
        """Score ``sym``; over the cap, shrink it toward the mean field and
        score the shrunk field."""
        b2, ainf = screen(sym)
        if b2 > b2_cap:
            sym, kept = _shrink_to_cap(sym, screen, b2_cap)
            b2, ainf = screen(sym) if kept is None else kept
        return sym, ainf - penalty * max(0.0, b2 - b2_cap), b2, ainf

    sym = np.zeros(shape + (N, N))
    for i in range(N):
        for j in range(i, N):
            e = rng.standard_normal(shape) * 0.3
            sym[..., i, j] = e
            sym[..., j, i] = e
    sym, cur_score, cur_b2, cur_ainf = feasible(sym)
    best_sym, best_score = sym.copy(), cur_score
    trail = [{"step": 0, "score": cur_score, "b2_iv": cur_b2, "ainf_ii": cur_ainf}]
    temp = 1.0
    for step in range(1, budget + 1):
        cand, score, b2, ainf = feasible(_propose(sym, rng, temp))
        if score > cur_score or rng.random() < np.exp(
            min((score - cur_score) / max(temp, 1e-9), 0.0)
        ):
            sym, cur_score = cand, score
        if score > best_score:
            best_sym, best_score = cand.copy(), score
            trail.append(
                {"step": step, "score": score, "b2_iv": b2, "ainf_ii": ainf}
            )
        temp *= 0.999

    # The anneal caps the dyadic-family constant; shrink once more so the
    # emitted instance honors the cap over the full translated-grid family.
    def full_b2(sym):
        return (family_scan(build(sym), ("b2_iv",), shifts).sups["b2_iv"],)

    if full_b2(best_sym)[0] > b2_cap:
        best_sym, _ = _shrink_to_cap(best_sym, full_b2, b2_cap)
    best_field = build(best_sym)
    report = class_report(best_field, shifts=shifts)
    return InclusionSearchResult(
        field=best_field,
        report=report,
        objective=best_score,
        trail=trail,
    )
