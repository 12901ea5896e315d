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

from .grid import _BATCH_FLOATS, CellValueError, Grid, WeightField, _reject_nonfinite, _reject_singular
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
    """Cheap dyadic-only (b2_iv, ainf_ii) pairs of the fields ``exp(sym)`` on
    ``grid``, used inside the search loop: the ratio kernel over every dyadic
    cube at once, both floored at 1.  ``sym`` stacks k log-matrix fields on an
    axis after the cell axes, ``(side,) * n + (k, N, N)``; the pairs come back
    as a list, in stack order.

    One ``eigh`` of the log-matrices gives every cell the kernel reads:
    ``W = v e^w v^T``, ``W^2 = v e^{2w} v^T`` and ``log det W = sum w``, written
    as the channels of one cell array (``W`` and ``W^2`` row-major, then
    ``log det W``) whose tail is ``(k, 2 N^2 + 1)``.  So the k fields take one
    pass up the tree, one ``mu_averages`` and one kernel call; every operation
    is per cell, per cube or per matrix, so each field's pair has the bits of
    its own k = 1 screen.  The cells are refused as ``WeightField`` refuses
    them: the first field with a non-finite or singular cell ends the batch,
    and only the pairs of the fields before it are returned; when that field
    is the first, its ``CellValueError`` is raised.  No ``WeightField`` is built."""
    w, v = np.linalg.eigh(sym)
    lead, k, N = w.shape[:-1], w.shape[-2], w.shape[-1]
    exps = np.empty(lead + (2, N))
    exp_w = np.exp(w, out=exps[..., 0, :])
    np.multiply(exp_w, exp_w, out=exps[..., 1, :])
    cells = np.empty(lead + (2 * N * N + 1,))
    powers = cells[..., :-1].reshape(lead + (2, N, N))
    np.einsum("...ij,...aj,...kj->...aik", v, exps, v, out=powers)
    np.add.reduce(w, axis=-1, out=cells[..., -1])
    if not (np.isfinite(powers[..., 0, :, :]).all() and exp_w[..., 0].min() > 1e-13 * np.abs(exp_w).max()):
        # Some cell fails: the first field that holds one ends the batch.
        for j in range(k):
            try:
                _reject_nonfinite(powers[..., j, 0, :, :])
                _reject_singular(exp_w[..., j, :])
            except CellValueError:
                if j == 0:
                    raise
                k, cells = j, cells[..., :j, :]
                break
    stack = grid.mu_averages(grid.integrals(cells))
    moments = stack[..., :-1].reshape(-1, 2, N, N)
    avg = {"w": moments[:, 0], "w2": moments[:, 1], "logdet": stack[..., -1].reshape(-1)}
    r = ratio_kernel(avg, ("b2_iv", "ainf_ii"))
    # fmax keeps 1.0 against a NaN sup, as max(1.0, nan) does.
    b2, ainf = (np.fmax(1.0, r[key].reshape(-1, k).max(axis=0)).tolist() for key in ("b2_iv", "ainf_ii"))
    return list(zip(b2, ainf))


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


# Bisection steps of a shrink toward the mean field.
_SHRINK_STEPS = 12
# Midpoints a shrink round screens at once.  Over the 30 shrinks of the
# inclusion-anneal benchmark (n=1 N=2 L=4, cap 4, budget 200, seed 3), 1, 4, 6
# and 12 ahead took 360, 98, 74 and 66 screen calls for 360, 372, 401 and 560
# fields.  A call there costs about 50 us plus 20 us per field, so 4 or 6
# ahead halve the shrink's screening time; at 4 only 3% extra fields are
# screened, so a deep grid, whose screens cost their data, loses almost nothing.
_AHEAD = 4


def _shrink_to_cap(sym, screens, b2_cap, b2_top):
    """Bisect ``_SHRINK_STEPS`` times for the largest scale s in [0, 1] at which
    the field ``mean + s (sym - mean)`` keeps its screen's first entry, its b2
    constant, within the cap; the constant mean field (s = 0) has every
    constant equal to one, and ``b2_top`` is the screen's b2 at s = 1.
    ``screens`` takes such fields stacked as ``_dyadic_constants`` takes them
    and returns the screens of a non-empty prefix of the stack.  Returns the
    shrunk field and its screen, or None when no scale was accepted.

    The steps run in rounds.  Each round guesses the threshold scale by linear
    interpolation of b2 between the screened scales that bracket the open
    interval, lays out the next midpoints as if every decision followed the
    guess (at most ``_AHEAD``, the steps left, and the fields whose
    ``2 N^2 + 1`` cell channels fit in ``_BATCH_FLOATS``), screens them in one
    call and applies their decisions in order, up to and including the first
    that contradicts the guess.  So the fields decided on, the decisions and
    the result are those of the sequential bisection; the guess only chooses
    which extra fields are screened, each at most once."""
    mean = sym.mean(axis=tuple(range(sym.ndim - 2)))
    delta = sym - mean
    N = sym.shape[-1]
    fit = max(1, _BATCH_FLOATS // (sym[..., 0, 0].size * (2 * N * N + 1)))
    lo_s, hi_s, kept = 0.0, 1.0, None
    lo_b2, hi_b2, steps = 1.0, b2_top, 0
    while steps < _SHRINK_STEPS:
        guess = lo_s + (b2_cap - lo_b2) / (hi_b2 - lo_b2) * (hi_s - lo_s)
        mids, accepts, lo, hi = [], [], lo_s, hi_s
        for _ in range(min(_AHEAD, _SHRINK_STEPS - steps, fit)):
            mids.append((lo + hi) / 2.0)
            accepts.append(mids[-1] <= guess)
            lo, hi = (mids[-1], hi) if accepts[-1] else (lo, mids[-1])
        stack = mean + np.array(mids)[:, None, None] * delta[..., None, :, :]
        for mid, accept, screened in zip(mids, accepts, screens(stack)):
            steps += 1
            took = screened[0] <= b2_cap
            if took:
                lo_s, lo_b2, kept = mid, screened[0], screened
            else:
                hi_s, hi_b2 = mid, screened[0]
            if took != accept:
                break
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

    Every screen of the anneal is one ``_dyadic_constants`` call: a candidate
    alone, or a projection's round of predicted midpoints stacked (see
    ``_shrink_to_cap``).  The rounds decide on the fields the sequential
    bisection decides on, so no output depends on them.
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

    def screens(stack):
        return _dyadic_constants(grid, stack)

    def screen(sym):
        return _dyadic_constants(grid, sym[..., None, :, :])[0]

    def feasible(sym):
        """Score ``sym``; over the cap, shrink it toward the mean field and
        score the shrunk field."""
        b2, ainf = screen(sym)
        if b2 > b2_cap:
            sym, kept = _shrink_to_cap(sym, screens, b2_cap, b2)
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
        return family_scan(build(sym), ("b2_iv",), shifts).sups["b2_iv"]

    top = full_b2(best_sym)
    if top > b2_cap:
        # One family scan per step, as the sequential bisection takes them:
        # the screens read the first field of each stack only.
        best_sym, _ = _shrink_to_cap(best_sym, lambda stack: [(full_b2(stack[..., 0, :, :]),)], b2_cap, top)
    best_field = build(best_sym)
    report = class_report(best_field, shifts=shifts)
    return InclusionSearchResult(
        field=best_field,
        report=report,
        objective=best_score,
        trail=trail,
    )
