"""Seeded weight-field inputs, built with numpy alone.

The fields are generated here rather than by ``dwlab.harness`` so that no
change to the program can change the bytes it is benchmarked on.  Each field
is a multiscale log-Gaussian matrix weight (cell-wise matrix exponential of a
symmetric Gaussian field summed over dyadic scales) on a log-Gaussian
density, written in the program's text format at 17 significant digits.
"""

from __future__ import annotations

import numpy as np

# Amplitudes of the log-field and the log-density.  Their dyadic scales are
# weighted equally, so every level of the tree carries oscillation.
MATRIX_AMPLITUDE = 0.5
DENSITY_AMPLITUDE = 0.3
DOUBLING_CAP = 100.0


def _multiscale(rng, n, L, amplitude):
    """Sum over levels 0..L of a Gaussian constant on each level-k cube."""
    side = 2**L
    out = np.zeros((side,) * n)
    for k in range(L + 1):
        block = rng.standard_normal((2**k,) * n)
        for axis in range(n):
            block = np.repeat(block, side // 2**k, axis=axis)
        out += block
    return out * (amplitude / np.sqrt(L + 1))


def make_field(rng, n, N, L):
    """Return ``(mu, values)``: density of shape ``(2**L,)*n`` and SPD cells."""
    sym = np.zeros((2**L,) * n + (N, N))
    for i in range(N):
        for j in range(i, N):
            entry = _multiscale(rng, n, L, MATRIX_AMPLITUDE)
            sym[..., i, j] = entry
            sym[..., j, i] = entry
    w, v = np.linalg.eigh(sym)
    values = np.einsum("...ij,...j,...kj->...ik", v, np.exp(w), v)
    mu = np.exp(_multiscale(rng, n, L, DENSITY_AMPLITUDE))
    check_doubling(mu, n)
    return mu, values


def check_doubling(mu, n):
    """Bound the doubling ratio of every box by 2**n * max(mu) / min(mu).

    For any axis box Q and its clipped double 2Q, mu(2Q) <= max(mu) |2Q| <=
    max(mu) 2**n |Q| and mu(Q) >= min(mu) |Q|.  The bound therefore covers
    every translated grid and level the program may sample.
    """
    bound = 2.0**n * float(mu.max()) / float(mu.min())
    if not bound <= DOUBLING_CAP:
        raise ValueError(f"density fails the doubling cap: {bound:.3g} > {DOUBLING_CAP}")
    return bound


def field_text(mu, values):
    """The program's field file format: header ``n N L``, one line per cell."""
    n = mu.ndim
    N = values.shape[-1]
    L = int(round(np.log2(mu.shape[0])))
    rows = np.concatenate([mu.reshape(-1, 1), values.reshape(-1, N * N)], axis=1)
    lines = [f"{n} {N} {L}"]
    lines.extend(" ".join(f"{x:.17g}" for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def field_rng(seed, index):
    """Independent stream per (benchmark seed, field index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))
