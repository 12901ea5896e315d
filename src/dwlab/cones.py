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
import numpy as np

__all__ = [
    "ConeNet",
    "maximizing_vector_bound",
    "build_net",
    "sector_membership",
    "min_over_cone",
    "coverage_check",
    "required_alignment",
    "MAX_NET_INDEX",
]

# Largest closed-form bound on a net's index range that the recursion walks.
# It admits N=5 at eps1 0.15 (2.3e10) and keeps the ring tables under 30 MB.
MAX_NET_INDEX = 2**35

_DETERMINISTIC_PROBE_SEED = 0x5EED


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


def _count(k, sigma, step):
    """Points of a circle (k = 2) or rings of a sphere (k = 1) at spacing
    ``step / sigma``: ceil(k pi sigma / step), at least 1."""
    return np.maximum(1, np.ceil(k * np.pi * sigma / step)).astype(np.int64)


def _polar(n, r):
    """Polar angle of ring ``r`` of a node with ``n`` rings."""
    return (r + 0.5) * (np.pi / n)


class _Level:
    """Ring nodes of one dimension d >= 3, one table row per ring count n.

    Row n lists its rings' child counts (rings of the (d-1)-sphere, or circle
    points when d = 3) and, in ``first``, each child's first index as a running
    total over all rows, so ``first - base[n]`` is the ring's offset in node n.
    """

    def __init__(self, ns, k):
        self.ns = ns
        self.child = np.concatenate(
            [_count(k, np.sin(_polar(n, np.arange(n))), np.pi / n) for n in ns]
        )
        starts = np.cumsum(ns) - ns
        self.row = np.full(int(ns[-1]) + 1, -1, dtype=np.int64)
        self.row[ns] = starts

    def count(self, child_size):
        """Set the offsets from the sizes of the child nodes; return the node
        sizes indexed by ring count."""
        sizes = child_size[self.child]
        self.first = np.cumsum(sizes) - sizes
        self.base = np.zeros(len(self.row), dtype=np.int64)
        self.base[self.ns] = self.first[self.row[self.ns]]
        total = np.zeros(len(self.row), dtype=np.int64)
        total[self.ns] = np.add.reduceat(sizes, self.row[self.ns])
        return total


class ConeNet:
    """Unit-vector net of the sphere S^(dim-1) from one latitude-ring recursion.

    Dimension 1 is +-e1 and dimension 2 a circle of ``ceil(2 pi / s)`` points.
    Dimension d >= 3 has ``ceil(pi / s)`` rings at polar angles (r + 1/2) step
    about the last coordinate; ring r carries the (d-1)-net of spacing
    ``step / sin(phi_r)``, and the net's indices run ring by ring.  The top
    spacing s is theta, 1.2 theta and 1.7 theta / sqrt(N - 1) for N = 2, 3 and
    N >= 4, with theta = acos(required_cos).  No vector is stored: a node is
    fixed by its dimension and ring count, so per-dimension tables of ring
    counts give every index and ``vectors_at`` computes vectors by arithmetic.
    """

    def __init__(self, dim, eps1):
        if dim < 1:
            raise ValueError("N must be at least 1")
        if not 0.0 < eps1 <= 0.5:
            raise ValueError("eps1 must lie in (0, 1/2]")
        self.dim, self.eps1 = dim, eps1
        self.certificate_cos = self.certificate_gap = None
        theta = math.acos(required_alignment(eps1))
        if dim <= 3:
            spacing = theta * 1.2 if dim == 3 else theta
        else:
            spacing = 1.7 * theta / math.sqrt(dim - 1)
        # The top node: the two points +-e1, a circle, or a sphere's rings.
        self.top = int(_count(2.0 if dim == 2 else 1.0, 1.0, spacing)) if dim > 1 else 2
        # About `top` rings per level and at most 2 top + 1 points per circle.
        bound = self.top if dim <= 2 else (2 * self.top + 1) * self.top ** (dim - 2)
        if bound > MAX_NET_INDEX:
            raise ValueError(
                f"the cone net for N={dim}, eps1={eps1!r} spans up to {bound:.3g} indices,"
                f" more than the {MAX_NET_INDEX} the recursion walks"
            )
        self.levels = []
        ns = np.array([self.top], dtype=np.int64)
        for d in range(dim, 2, -1):
            self.levels.append(_Level(ns, 2.0 if d == 3 else 1.0))
            ns = np.unique(self.levels[-1].child)
        size = np.arange(int(ns[-1]) + 1, dtype=np.int64)
        for level in reversed(self.levels):
            size = level.count(size)
        self.size = int(size[self.top])

    @property
    def required_cos(self):
        return required_alignment(self.eps1)

    def vectors_at(self, idx):
        """Net vectors of the indices ``idx``, one row each."""
        idx = np.asarray(idx, dtype=np.int64)
        if np.any((idx < 0) | (idx >= self.size)):
            raise ValueError(f"net indices must lie in [0, {self.size})")
        out = np.zeros((len(idx), self.dim))
        if self.dim == 1:
            out[:, 0] = np.where(idx == 0, 1.0, -1.0)
            return out
        n, scale = np.full(len(idx), self.top), np.ones(len(idx))
        for d, level in zip(range(self.dim, 2, -1), self.levels):
            e = np.searchsorted(level.first, level.base[n] + idx, side="right") - 1
            phi = _polar(n, e - level.row[n])
            idx = idx - (level.first[e] - level.base[n])
            out[:, d - 1] = scale * np.cos(phi)
            scale = scale * np.sin(phi)
            n = level.child[e]
        psi = idx * (2.0 * np.pi / n)
        out[:, 0] = scale * np.cos(psi)
        out[:, 1] = scale * np.sin(psi)
        return out

    def _candidates(self, v1s):
        """Indices of the lookup's candidates for the unit rows of ``v1s``: the
        two nearest rings at every level, then the circle point nearest in
        angle, so 2^(N-2) per row for N >= 3."""
        v1s = np.asarray(v1s, dtype=float)
        if self.dim == 1:
            return np.where(v1s[:, :1] >= 0.0, 0, 1)
        n = np.full((len(v1s), 1), self.top)
        idx = np.zeros((len(v1s), 1), dtype=np.int64)
        for d, level in zip(range(self.dim, 2, -1), self.levels):
            rest = np.sqrt(np.sum(v1s[:, : d - 1] ** 2, axis=1))
            phi = np.arctan2(rest, v1s[:, d - 1])[:, None]
            r0 = np.clip(np.floor(phi / (np.pi / n) - 0.5).astype(np.int64), 0, n - 1)
            r = np.stack([r0, np.minimum(r0 + 1, n - 1)], axis=-1).reshape(len(v1s), -1)
            n, idx = np.repeat(n, 2, axis=1), np.repeat(idx, 2, axis=1)
            e = level.row[n] + r
            idx = idx + level.first[e] - level.base[n]
            n = level.child[e]
        psi = (np.arctan2(v1s[:, 1], v1s[:, 0]) % (2.0 * math.pi))[:, None]
        return idx + np.rint(psi / (2.0 * math.pi) * n).astype(np.int64) % n

    def cover_indices(self, v1s):
        """Index of a net vector aligned with each unit row of ``v1s``: the
        lookup candidate with the largest inner product."""
        v1s = np.asarray(v1s, dtype=float)
        cand = self._candidates(v1s)
        if cand.shape[1] == 1:
            return cand[:, 0]
        rows = np.repeat(np.arange(len(v1s)), cand.shape[1])
        dots = np.einsum("ij,ij->i", v1s[rows], self.vectors_at(cand.ravel()))
        return cand[np.arange(len(v1s)), np.argmax(dots.reshape(cand.shape), axis=1)]


def _unit_sphere_sample(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def build_net(N, eps1, seed=0, probes=20000):
    """The cone net with its certificate: the worst alignment between the net
    and ``probes`` deterministic plus ``probes`` seeded random unit vectors.

    A net too large to walk raises ``ValueError``; a certificate below
    ``required_cos`` is returned as data for the caller to refuse.
    """
    net = ConeNet(N, eps1)
    probe = np.concatenate(
        [
            _unit_sphere_sample(np.random.default_rng(_DETERMINISTIC_PROBE_SEED), probes, N),
            _unit_sphere_sample(np.random.default_rng(seed), probes, N),
        ]
    )
    dots = np.einsum("ij,ij->i", probe, net.vectors_at(net.cover_indices(probe)))
    net.certificate_cos = float(dots.min())
    net.certificate_gap = math.acos(min(1.0, max(-1.0, net.certificate_cos)))
    return net


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
    if trials < 0:
        raise ValueError("trials must be non-negative")
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
        dots = np.einsum("ij,ij->i", v1, net.vectors_at(net.cover_indices(v1)))
        for g_mat, d, v in zip(mats[live], dots, v1):
            if d >= required:
                continue
            # Cheap certificate missed; try the lookup's candidates properly.
            vecs = net.vectors_at(net._candidates(v[None, :])[0])
            if any(
                sector_membership(g_mat, u, net.eps1, seed=seed)
                for u in vecs[np.argsort(vecs @ v)[::-1]]
            ):
                continue
            failures += 1
    return failures
