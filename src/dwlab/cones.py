"""Conical covering of direction space and the maximizing-vector inequality.

For unit vectors x, y and a nonzero linear map A the inequality

    |Ay| >= ((x, y) - sqrt(2) * sqrt(1 - |Ax|/|A|)) * |A|

lets a finite net of unit directions certify lower bounds for every matrix:
if a net vector is within the prescribed cap of a matrix's maximizing input
direction, the matrix is bounded below on the whole compact truncated cone
around that net vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetInfeasibleError",
    "ConeNet",
    "maximizing_vector_bound",
    "build_net",
    "sector_membership",
    "min_over_cone",
    "coverage_check",
    "required_alignment",
    "net_size_estimate",
    "MAX_NET_VECTORS",
]

MAX_NET_VECTORS = 400_000

_DETERMINISTIC_PROBE_SEED = 0x5EED


class NetInfeasibleError(RuntimeError):
    """Raised when the direction net cannot reach the required density."""


def required_alignment(eps1):
    """Net vectors must come this close (in inner product) to any unit vector."""
    return 1.0 - eps1**4 / 8.0


def maximizing_vector_bound(a, x, y):
    """Evaluate both sides of the maximizing-vector inequality.

    Returns ``(|Ay|, ((x,y) - sqrt(2) sqrt(1 - |Ax|/|A|)) |A|)``; the left side
    dominates the right for all unit x, y and nonzero A.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    for v in (x, y):
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValueError("x and y must be unit vectors")
    norm_a = float(np.linalg.svd(a, compute_uv=False)[0])
    if norm_a == 0.0:
        raise ValueError("zero matrix has no maximizing direction")
    lhs = float(np.linalg.norm(a @ y))
    deficit = max(0.0, 1.0 - float(np.linalg.norm(a @ x)) / norm_a)
    rhs = (float(x @ y) - math.sqrt(2.0) * math.sqrt(deficit)) * norm_a
    return lhs, rhs


@dataclass
class ConeNet:
    eps1: float
    dim: int
    vectors: np.ndarray
    kind: str
    certificate_cos: float
    certificate_gap: float
    lookup_meta: dict

    @property
    def size(self):
        return self.vectors.shape[0]

    @property
    def required_cos(self):
        return required_alignment(self.eps1)

    def cover_index(self, v1):
        """Index of a net vector aligned with the unit vector ``v1``."""
        return self.cover_indices(np.asarray(v1, dtype=float)[None, :])[0]

    def cover_indices(self, v1s):
        v1s = np.asarray(v1s, dtype=float)
        if self.kind == "pm":
            return np.where(v1s[:, 0] >= 0.0, 0, 1)
        if self.kind == "circle":
            spacing = self.lookup_meta["spacing"]
            ang = np.arctan2(v1s[:, 1], v1s[:, 0]) % (2.0 * math.pi)
            return np.rint(ang / spacing).astype(int) % self.size
        if self.kind == "sphere-rings":
            return self._ring_lookup(v1s)
        # Greedy nets: chunked arg-max of the inner products.
        out = np.empty(v1s.shape[0], dtype=int)
        step = max(1, 10_000_000 // max(self.size, 1))
        for start in range(0, v1s.shape[0], step):
            block = v1s[start : start + step]
            out[start : start + step] = np.argmax(block @ self.vectors.T, axis=1)
        return out

    def _ring_lookup(self, v1s):
        meta = self.lookup_meta
        polar_step = meta["polar_step"]
        offsets = meta["offsets"]
        counts = meta["counts"]
        n_rings = len(counts)
        z = np.clip(v1s[:, 2], -1.0, 1.0)
        phi = np.arccos(z)
        psi = np.arctan2(v1s[:, 1], v1s[:, 0]) % (2.0 * math.pi)
        base = np.clip((phi / polar_step).astype(int), 0, n_rings - 1)
        best = np.zeros(v1s.shape[0], dtype=int)
        best_dot = np.full(v1s.shape[0], -2.0)
        for dr in (-1, 0, 1):
            ring = np.clip(base + dr, 0, n_rings - 1)
            m = counts[ring]
            idx = offsets[ring] + (np.rint(psi / (2.0 * math.pi) * m).astype(int) % m)
            dots = np.einsum("ij,ij->i", v1s, self.vectors[idx])
            better = dots > best_dot
            best[better] = idx[better]
            best_dot[better] = dots[better]
        return best


def _grid_spacing(N, eps1):
    """Per-angle step of the product grid that ``build_net`` uses for N >= 4."""
    return 1.7 * math.acos(required_alignment(eps1)) / math.sqrt(N - 1)


def net_size_estimate(N, eps1):
    """Vectors in ``build_net``'s construction before densification; exact for
    N <= 2, estimated for the latitude rings (N = 3) and product grids."""
    theta = math.acos(required_alignment(eps1))
    if N == 1:
        return 2
    if N == 2:
        return int(math.ceil(2.0 * math.pi / theta))
    if N == 3:
        return int(8.0 / (1.2 * theta) ** 2) + 64
    spacing = _grid_spacing(N, eps1)
    rings = (2.0 / math.pi) * (2.0 * math.pi / spacing + 1)
    return int((math.pi / spacing + 1) * rings ** (N - 2))


def _unit_sphere_sample(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _circle_net(eps1):
    theta = math.acos(required_alignment(eps1))
    count = int(math.ceil(2.0 * math.pi / theta))
    ang = np.arange(count) * (2.0 * math.pi / count)
    vectors = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return vectors, {"spacing": 2.0 * math.pi / count}


def _ring_net(eps1):
    theta = math.acos(required_alignment(eps1))
    step = theta * 1.2  # worst offset is about step/sqrt(2), leaving margin
    n_rings = int(math.ceil(math.pi / step))
    polar_step = math.pi / n_rings
    vectors = []
    counts = []
    offsets = []
    for r in range(n_rings):
        phi = (r + 0.5) * polar_step
        m = max(1, int(math.ceil(2.0 * math.pi * math.sin(phi) / polar_step)))
        offsets.append(len(vectors))
        counts.append(m)
        psi = np.arange(m) * (2.0 * math.pi / m)
        ring = np.stack(
            [
                math.sin(phi) * np.cos(psi),
                math.sin(phi) * np.sin(psi),
                np.full(m, math.cos(phi)),
            ],
            axis=1,
        )
        vectors.extend(ring)
    meta = {
        "polar_step": polar_step,
        "counts": np.array(counts, dtype=int),
        "offsets": np.array(offsets, dtype=int),
    }
    return np.array(vectors), meta


def _product_sphere(dim, spacing):
    """Deterministic grid on the unit sphere of R^dim with per-angle step
    at most ``spacing`` (so chordal covering radius about spacing*sqrt(dim-1)/2)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        m = max(4, int(math.ceil(2.0 * math.pi / spacing)))
        ang = np.arange(m) * (2.0 * math.pi / m)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rings = max(2, int(math.ceil(math.pi / spacing)))
    step = math.pi / rings
    blocks = []
    for r in range(rings):
        phi = (r + 0.5) * step
        sub = _product_sphere(dim - 1, spacing / max(math.sin(phi), spacing / math.pi))
        block = np.empty((sub.shape[0], dim))
        block[:, 0] = math.cos(phi)
        block[:, 1:] = math.sin(phi) * sub
        blocks.append(block)
    return np.concatenate(blocks)


def build_net(N, eps1, seed=0, probes=20000, max_vectors=MAX_NET_VECTORS):
    """Finite unit-vector net whose caps of the prescribed width cover the sphere.

    Construction is deterministic (uniform circle, latitude rings, or a
    recursive product grid); the certificate records the worst alignment over
    a deterministic sample plus seeded random probes and densifies greedily on
    any stragglers before giving up.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 0.0 < eps1 <= 0.5:
        raise ValueError("eps1 must lie in (0, 1/2]")
    required = required_alignment(eps1)
    if N == 1:
        vectors = np.array([[1.0], [-1.0]])
        return ConeNet(eps1, N, vectors, "pm", 1.0, 0.0, {})
    if N == 2:
        vectors, meta = _circle_net(eps1)
        net = ConeNet(eps1, N, vectors, "circle", 1.0, 0.0, meta)
    elif N == 3:
        vectors, meta = _ring_net(eps1)
        net = ConeNet(eps1, N, vectors, "sphere-rings", 1.0, 0.0, meta)
    else:
        est = net_size_estimate(N, eps1)
        if est > max_vectors:
            raise NetInfeasibleError(
                f"estimated net size {est} exceeds the {max_vectors} vector budget"
                f" for N={N}, eps1={eps1!r}"
            )
        vectors = _product_sphere(N, _grid_spacing(N, eps1))
        if vectors.shape[0] > max_vectors:
            raise NetInfeasibleError(
                f"net size {vectors.shape[0]} exceeds the {max_vectors} vector budget"
            )
        net = ConeNet(eps1, N, vectors, "greedy", 1.0, 0.0, {})

    det_rng = np.random.default_rng(_DETERMINISTIC_PROBE_SEED)
    rng = np.random.default_rng(seed)
    for _ in range(12):
        probe = np.concatenate(
            [
                _unit_sphere_sample(det_rng, probes, N),
                _unit_sphere_sample(rng, probes, N),
                net.vectors,
            ]
        )
        idx = net.cover_indices(probe)
        dots = np.einsum("ij,ij->i", probe, net.vectors[idx])
        worst = float(dots.min())
        net.certificate_cos = worst
        net.certificate_gap = math.acos(min(1.0, max(-1.0, worst)))
        if worst >= required:
            return net
        if net.kind != "greedy":  # structured nets should never fail; densify anyway
            net = ConeNet(eps1, N, net.vectors, "greedy", worst, net.certificate_gap, {})
        bad = probe[dots < required]
        if net.size + bad.shape[0] > max_vectors:
            raise NetInfeasibleError(
                f"net budget exhausted at {net.size} vectors, achieved alignment {worst!r}"
                f" < required {required!r}"
            )
        net.vectors = np.concatenate([net.vectors, bad])
    raise NetInfeasibleError(
        f"net did not certify after densification, achieved {net.certificate_cos!r}"
    )


def _project_cone_cap(points, v0, eps1):
    """Exact Euclidean projection onto {(v, v0) >= eps1, |v| <= 1/eps1}."""
    rho = 1.0 / eps1
    alpha = points @ v0
    tang = points - alpha[:, None] * v0
    tnorm = np.linalg.norm(tang, axis=1)
    out = points.copy()
    # Ball projection when only the norm constraint is active.
    norms = np.sqrt(alpha**2 + tnorm**2)
    scale = np.minimum(1.0, rho / np.maximum(norms, 1e-300))
    scaled_alpha = alpha * scale
    need_face = scaled_alpha < eps1
    out = points * scale[:, None]
    if np.any(need_face):
        cap = math.sqrt(max(rho**2 - eps1**2, 0.0))
        t = tang[need_face]
        tn = tnorm[need_face]
        shrink = np.minimum(1.0, cap / np.maximum(tn, 1e-300))
        out[need_face] = eps1 * v0 + t * shrink[:, None]
    return out


def min_over_cone(gamma, v0, eps1, starts=16, steps=200, samples=256, seed=0):
    """Minimum of |gamma v| over the truncated cone around v0.

    The objective is a convex quadratic and the region is convex, so projected
    gradient descent from a few starts converges to the global minimum; random
    feasible samples cross-check the search.
    """
    gamma = np.asarray(gamma, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = v0.shape[0]
    gram = gamma.T @ gamma
    lip = float(np.max(np.abs(np.linalg.eigvalsh(gram)))) * 2.0
    rng = np.random.default_rng(seed)
    pool = np.concatenate(
        [
            (eps1 * v0)[None, :],
            v0[None, :],
            _unit_sphere_sample(rng, max(starts - 2, 1), n),
        ]
    )
    pts = _project_cone_cap(pool, v0, eps1)
    if lip > 0.0:
        step = 1.0 / lip
        for _ in range(steps):
            grad = 2.0 * pts @ gram
            pts = _project_cone_cap(pts - step * grad, v0, eps1)
    cand = [pts]
    if samples > 0:
        cand.append(_project_cone_cap(_unit_sphere_sample(rng, samples, n) / eps1, v0, eps1))
    allpts = np.concatenate(cand)
    vals = np.linalg.norm(allpts @ gamma.T, axis=1)
    best = int(np.argmin(vals))
    return float(vals[best]), allpts[best]


def sector_membership(gamma, v0, eps1, sample_D=256, seed=0, rel_slack=1e-9):
    """Whether |gamma| <= (2/eps1^3) |gamma v| for all v in the truncated cone.

    Tested on the minimizer of |gamma v| over the cone (found by projected
    search) together with ``sample_D`` random cone points.
    """
    gamma = np.asarray(gamma, dtype=float)
    norm_gamma = float(np.linalg.svd(gamma, compute_uv=False)[0])
    if norm_gamma == 0.0:
        raise ValueError("zero matrix belongs to every sector trivially; not tested")
    min_val, _ = min_over_cone(gamma, v0, eps1, samples=sample_D, seed=seed)
    threshold = (eps1**3 / 2.0) * norm_gamma
    return bool(min_val >= threshold * (1.0 - rel_slack))


def coverage_check(net, trials, seed=0):
    """Count random matrices caught by no sector of the net; the contract is 0.

    Matrices are mixed Gaussian / rank-one with scales across twelve orders of
    magnitude.  A matrix is certified covered when some net vector aligns with
    its maximizing input direction to the required cap width; stragglers fall
    back to the full optimization-based membership test.
    """
    rng = np.random.default_rng(seed)
    n = net.dim
    failures = 0
    batch = 2048
    remaining = trials
    required = net.required_cos
    while remaining > 0:
        k = min(batch, remaining)
        remaining -= k
        rows = int(rng.integers(1, 4))
        mats = rng.standard_normal((k, rows, n))
        ranks = rng.random(k) < 0.3
        if np.any(ranks):
            num = int(np.sum(ranks))
            mats[ranks] = (
                rng.standard_normal((num, rows, 1)) * rng.standard_normal((num, 1, n))
            )
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=k)
        mats *= scales[:, None, None]
        norms = np.linalg.svd(mats, compute_uv=False)[..., 0]
        live = norms > 0.0
        _, _, vt = np.linalg.svd(mats[live])
        v1 = vt[:, 0, :]
        idx = net.cover_indices(v1)
        dots = np.einsum("ij,ij->i", v1, net.vectors[idx])
        for g_mat, d, v in zip(mats[live], dots, v1):
            if d >= required:
                continue
            # Cheap certificate missed; try the best few vectors properly.
            inner = net.vectors @ v
            order = np.argsort(inner)[::-1][:5]
            if any(
                sector_membership(g_mat, net.vectors[j], net.eps1, seed=seed)
                for j in order
            ):
                continue
            failures += 1
    return failures
