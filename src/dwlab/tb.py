"""Carleson functionals, test-function families and the end-to-end estimate run.

The half-space integral of a cube-indexed matrix multiplier is discretized
exactly: each dyadic cube R carries the Whitney slab (l(R)/2, l(R)] x R, over
which the dt/t integral contributes ln 2 regardless of scale.  The runner
mirrors the estimate's structure: cover direction space by a finite net, run
the average-oscillation stop on the weight and the test-function stop per net
direction, and bound the multiplier cube-by-cube through the cone inequality
applied to the weighted averages of the test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stopping
from .cones import ConeNet
from .grid import _morton, _sibling_sums
from .weights import family_scan

__all__ = [
    "LN2",
    "CarlesonField",
    "top_directions",
    "gamma_zero",
    "gamma_constant",
    "gamma_martingale",
    "gamma_random",
    "make_gamma",
    "carleson_norm",
    "CanonicalFamily",
    "HypothesisConstants",
    "HYPOTHESIS_KEYS",
    "verify_hypotheses",
    "TbReport",
    "tb_run",
]

LN2 = math.log(2.0)


@dataclass
class CarlesonField:
    """One M x N matrix per dyadic cube, as one ``(cubes, M, N)`` stack in
    ``CubeTree`` order."""

    grid: object
    M: int
    N: int
    stack: np.ndarray

    def norms_sq(self):
        """The squared operator norm of every multiplier, one row per cube: a
        row's sum of squares when M = 1, else the top singular value's square."""
        if self.M == 1:
            return np.einsum("...ij,...ij->...", self.stack, self.stack)
        return np.linalg.svd(self.stack, compute_uv=False)[..., 0] ** 2


def top_directions(gammas):
    """The top right singular vector of every matrix of the nonzero stack
    ``gammas``, signed as numpy's ``svd`` signs it.

    A 1 x N row g needs no ``svd``: its vector is ``-copysign(1, g_0) g / |g|``,
    or e_1 when g_1 .. g_{N-1} are all zero.  The norm is taken after scaling
    each row by its largest ``|g_i|``, so rows near 1e+-200 stay unit.
    """
    if gammas.shape[-2] > 1:
        return np.linalg.svd(gammas)[2][:, 0, :]
    g = gammas[:, 0, :]
    v = np.zeros_like(g)
    v[:, 0] = 1.0
    turn = np.flatnonzero(np.any(g[:, 1:], axis=1))
    x = g[turn] / np.max(np.abs(g[turn]), axis=1, keepdims=True)
    norm = np.sqrt(np.einsum("ij,ij->i", x, x))
    # + 0.0 gives svd's +0.0 for zero entries; the net lookup's arctan2 tells
    # -0.0 apart.
    v[turn] = x / np.copysign(norm, -g[turn, 0])[:, None] + 0.0
    return v


def gamma_zero(grid, M, N):
    return CarlesonField(grid, M, N, np.zeros((grid.tree.size, M, N)))


def gamma_constant(grid, M, N, value=None):
    if value is None:
        value = np.zeros((M, N))
        value[0, 0] = 1.0
    value = np.asarray(value, dtype=float).reshape(M, N)
    return CarlesonField(grid, M, N, np.broadcast_to(value, (grid.tree.size, M, N)).copy())


def gamma_martingale(field, rows=1):
    """Rows of the jump of the weight averages between a cube and its parent.
    Every cube below the root is a child of the cubes above the finest level,
    in order, so the parents' rows are those cubes' rows repeated."""
    if rows > field.N:
        raise ValueError(
            f"the martingale multiplier has at most N = {field.N} rows, got M = {rows}"
        )
    g = field.grid
    avg = field.average_stack("w")[:, :rows, :]
    stack = np.zeros((len(avg), rows, field.N))
    stack[1:] = avg[1:] - np.repeat(avg[: g.tree.offsets[-2]], 2**g.n, axis=0)
    return CarlesonField(g, rows, field.N, stack)


def gamma_random(grid, M, N, seed=0, scale=1.0):
    """Uniform entries, drawn level by level in C order of the cubes and then
    put in tree order, so each seed keeps its draws."""
    rng = np.random.default_rng(seed)
    starts = grid.tree.offsets
    stack = np.empty((grid.tree.size, M, N))
    for k in range(grid.L + 1):
        draw = _morton(rng.uniform(-scale, scale, size=(2**k,) * grid.n + (M, N)), grid.n)
        stack[starts[k] : starts[k + 1]].reshape(draw.shape)[...] = draw
    return CarlesonField(grid, M, N, stack)


def make_gamma(kind, field, M=1, seed=0, scale=1.0):
    g = field.grid
    if kind == "zero":
        return gamma_zero(g, M, field.N)
    if kind == "constant":
        return gamma_constant(g, M, field.N)
    if kind == "martingale":
        return gamma_martingale(field, rows=M)
    if kind == "random":
        return gamma_random(g, M, field.N, seed=seed, scale=scale)
    raise ValueError(f"unknown gamma generator {kind!r}")


def _box_mass_tree(grid, masses):
    """Sum a flat stack of per-cube masses over the box of every cube Q, in
    place: each level adds the sibling sums of the level below, finest first."""
    s = grid.tree.offsets
    for k in range(grid.L - 1, -1, -1):
        masses[s[k] : s[k + 1]] += _sibling_sums(masses[s[k + 1] : s[k + 2]], grid.n)


def carleson_norm(gamma):
    """sup over cubes of the box-averaged Whitney mass of the multiplier."""
    return _carleson_sup(gamma.grid, gamma.norms_sq())


def _carleson_sup(g, norms_sq):
    """``carleson_norm`` from the squared multiplier norms, one row per cube."""
    masses = norms_sq * g.mu_stack * LN2
    _box_mass_tree(g, masses)
    ratios = masses / g.mu_stack
    best = 0.0
    for k in range(g.L + 1):
        best = max(best, float(ratios[g.tree.offsets[k] : g.tree.offsets[k + 1]].max()))
    return best


def _canonical_expectation(w_s, w_r, v0):
    """E_R b_S^v = W_R^{-1} W_S v for R inside S, batched over rows."""
    return np.linalg.solve(w_r, w_s @ v0[..., None])[..., 0]


class CanonicalFamily:
    """b_Q^v(x) = W(x)^{-1} W_Q v on Q, zero outside.

    Then int_R W b dmu = mu(R) W_Q v for every R inside Q, so the weighted
    average over R is W_R^{-1} W_Q v and the normalization (v, E_Q b) = 1 is
    an algebraic identity.
    """

    expectations = staticmethod(_canonical_expectation)

    def __init__(self, field):
        self.field = field

    def b_values(self, s_cube, v0):
        field = self.field
        g = field.grid
        out = np.zeros(g.mu.shape + (field.N,))
        sl = s_cube.cell_slices(g.L)
        w_s = field.average_stack("w")[g.tree.index(s_cube)]
        target = w_s @ np.asarray(v0, dtype=float)
        # W^-1 of the cube's cells only, from their eigen-decomposition.
        w, v = field.cell_eigvals[sl], field.cell_eigvecs[sl]
        inv = np.einsum("...ij,...j,...kj->...ik", v, 1.0 / w, v)
        out[sl] = np.einsum("...ij,j->...i", inv, target)
        return out

    def _sup_form(self, forms):
        """sqrt of the sup over cubes Q and unit v of u^T F_Q u / mu(Q), u = W_Q v,
        for a flat stack ``forms`` of positive semidefinite N x N matrices F_Q,
        one per dyadic cube: the largest top eigenvalue of S_Q = W_Q F_Q W_Q
        over mu(Q).

        An exact screen picks the cubes that go to ``eigvalsh``.  Since
        max_i (S_Q)_ii <= lambda_max(S_Q) <= max_i sum_j |(S_Q)_ij| (Gershgorin),
        the largest diagonal ratio is a lower bound ``low`` on the sup, and a
        cube whose row-sum ratio lies below ``low`` by more than a relative
        1e-12, far above the rounding of either side, cannot attain it.  The
        others, and every cube whose bound is not finite, go to one batched
        ``eigvalsh``; LAPACK takes each matrix on its own, so the sup has the
        bits of a batch over every cube.  The bound squares nothing, so tiny
        forms do not underflow it.  A kept form with a non-finite entry makes
        the sup NaN: ``eigvalsh`` returns finite values for such a matrix."""
        avg = self.field.average_stack("w")
        mu = self.field.grid.mu_stack
        s = avg @ forms @ avg
        s = s + np.swapaxes(s, -1, -2)
        s /= 2.0
        diag = s[:, 0, 0].copy()
        bound = np.abs(s[:, 0, :]).sum(-1)
        for i in range(1, s.shape[1]):
            np.maximum(diag, s[:, i, i], out=diag)
            np.maximum(bound, np.abs(s[:, i, :]).sum(-1), out=bound)
        bound /= mu
        diag /= mu
        finite = np.isfinite(bound)
        low = diag[finite].max(initial=-np.inf)
        keep = ~finite | (bound >= low * (1.0 - 1e-12))
        s = s[keep]
        if not np.isfinite(s).all():
            return math.nan
        top = np.linalg.eigvalsh(s)[:, -1]
        return math.sqrt(max(0.0, float(np.max(top / mu[keep]))))

    def c3(self):
        """Energy of b_Q^v over mu(Q) is u^T (W^-2)_Q u with u = W_Q v."""
        return self._sup_form(self.field.integral_stack("winv2"))

    def c4(self, gamma):
        """E_R b_Q^v = W_R^-1 u for R in Q, so the Carleson sum is u^T M_Q u with
        M_Q = ln2 sum_{R in Q} mu(R) W_R^-1 gamma_R^T gamma_R W_R^-1."""
        g = self.field.grid
        x = np.linalg.solve(self.field.average_stack("w"), np.swapaxes(gamma.stack, -1, -2))
        masses = x @ np.swapaxes(x, -1, -2) * (g.mu_stack * LN2)[:, None, None]
        _box_mass_tree(g, masses)
        return self._sup_form(masses)


@dataclass
class HypothesisConstants:
    C1: float
    C2: float
    C3: float
    C4: float

    def as_dict(self):
        return {"C1": self.C1, "C2": self.C2, "C3": self.C3, "C4": self.C4}


# The family scan C1 and C2 read; the command line's doubling-cap refusal reads
# the same memoised scan before the run.
HYPOTHESIS_KEYS = ("doubling", "thewest")


def verify_hypotheses(field, gamma, shifts=None):
    """Measured doubling, squared-average log-det, energy and test Carleson constants."""
    fam = CanonicalFamily(field)
    sups = family_scan(field, HYPOTHESIS_KEYS, shifts).sups
    return HypothesisConstants(
        C1=sups["doubling"], C2=math.sqrt(sups["thewest"]), C3=fam.c3(), C4=fam.c4(gamma)
    )


@dataclass
class TbReport:
    carleson_norm: float
    assembled_bound: float
    violations: list
    per_sector: dict
    partition_residual: float
    constants: dict
    eps: dict
    proof_regime: bool
    sector_count: int
    volberg_packing: float

    def as_dict(self):
        return {
            "carleson_norm": self.carleson_norm,
            "assembled_bound": self.assembled_bound,
            "violations": list(self.violations),
            "per_sector": dict(self.per_sector),
            "partition_residual": self.partition_residual,
            "constants": dict(self.constants),
            "eps": dict(self.eps),
            "proof_regime": self.proof_regime,
            "sector_count": self.sector_count,
            "volberg_packing": self.volberg_packing,
        }


def tb_run(field, gamma, eps1=None, eps2=0.1, eps3=None, lam=16.0, shifts=None):
    """Numerical proof-skeleton run for one instance.

    Every cube with a nonzero multiplier gets the net sector of its top right
    singular vector.  Under every anchor cube each such cube has a nested
    sawtooth owner chain (S1, S2): the weight's corona stop, then its sector's
    test-function stop restarted at S1.  The run checks that the averaged test
    function lands in the truncated cone and accumulates the cone-inequality
    bound next to the directly computed Carleson norm.
    """
    g = field.grid
    if not 0.0 < eps2 < 1.0:
        raise ValueError("eps2 must lie in (0,1)")
    if eps3 is None:
        eps3 = eps2**2 / 8.0
    if not 0.0 < eps3 < math.inf:
        raise ValueError("eps3 must be a finite number above 0")
    if not 1.0 < lam < math.inf:
        raise ValueError("lam must be a finite number above 1")
    if gamma.M < 1:
        raise ValueError("M must be at least 1")
    if eps1 is None:
        eps1 = eps2 / 2.0
    proof_regime = (eps1 <= eps2 / 2.0 + 1e-12) and (eps3 < eps2**2 / 4.0)
    net = ConeNet(field.N, eps1)
    tree, avg, mu = g.tree, field.average_stack("w"), g.mu_stack

    # Live cubes (nonzero multiplier) in the preorder of a box walk, and sectors.
    gsq, gammas = gamma.norms_sq(), gamma.stack
    live = np.flatnonzero(gsq > 0.0)
    live = live[np.argsort(tree.preorder(live))]
    v1 = top_directions(gammas[live])
    sector = net.cover_indices(v1)
    v0 = net.vectors_at(sector)
    dots = np.einsum("ij,ij->i", v1, v0)
    gap = np.flatnonzero(dots < net.required_cos)
    gap = gap[np.argsort(tree.c_order(live[gap]))]
    violations = [
        {"kind": "net-gap", "cube": cube, "value": value}
        for cube, value in zip(tree.descriptors(live[gap]), dots[gap].tolist())
    ]

    # S1 of every live cube under every anchor, from one propagation whose
    # pairs are the distinct (S1, cube) of each level; then S2 once per
    # distinct (S1, R) with R live: the propagation's pairs with a live cube.
    corona = stopping.corona_criterion(field, eps3)
    chains = stopping.anchor_owners(tree, corona, 0, g.L)
    base = np.cumsum([0] + [len(own) for own in chains.owner])
    row_of = np.full(tree.size, -1)
    row_of[live] = np.arange(len(live))
    rows = row_of[np.concatenate([tree.offsets[k] + c for k, c in enumerate(chains.column)])]
    held = rows >= 0
    p_s1, p_row = np.concatenate(chains.owner)[held], rows[held]
    # The number among the (S1, R) pairs of each propagation pair with a live R.
    number = np.cumsum(held) - 1
    depth = tree.level[live]
    column = live - tree.offsets[depth]
    by_level = [np.flatnonzero(depth == k) for k in range(g.L + 1)]

    def anchor_pairs(j):
        """The pair of every live row of level >= j under its level-j anchor
        (the other rows are left unset)."""
        out = np.empty(len(live), dtype=np.intp)
        for k, ids in enumerate(chains.pair_ids(j), j):
            out[by_level[k]] = number[base[k] + ids[column[by_level[k]]]]
        return out

    r, v = live[p_row], v0[p_row]

    def kato(s, a, rows):
        w_s, w_a, vr = avg[s], avg[a], v0[rows]
        return stopping.kato_fires(w_s, w_a, _canonical_expectation(w_s, w_a, vr), vr, eps2)

    p_s2 = stopping.chain_owners(tree, p_s1, r, lambda s, a, rows: kato(s, a, p_row[rows]))
    e = _canonical_expectation(avg[p_s2], avg[r], v)
    ge_sq = np.sum((gammas[r] @ e[..., None])[..., 0] ** 2, axis=-1)
    factor = (2.0 / eps1**3) ** 2
    contrib = factor * ge_sq * mu[r] * LN2
    violations += _chain_violations(
        tree, (sector[p_row], p_s1, p_s2, r), e, v, gsq[r], factor * ge_sq, eps1, eps2
    )

    assembled = 0.0
    for j in range(g.L + 1):
        # Per anchor Q, sum over the cubes of its box in preorder.
        at = np.flatnonzero(depth >= j)
        q = tree.ancestor(live[at], j) - tree.offsets[j]
        got = contrib[anchor_pairs(j)[at]]
        acc = np.bincount(q, weights=got, minlength=2 ** (g.n * j))
        assembled = max(assembled, float(np.max(acc / mu[tree.span(j)])))

    root = anchor_pairs(0)
    # Per-sector tallies over the sectors in use, added in cube order.
    used, slot = np.unique(sector, return_inverse=True)
    count = np.bincount(slot)
    direct = np.bincount(slot, weights=gsq[live] * mu[live] * LN2)
    bound = np.bincount(slot, weights=contrib[root])
    per_sector = {
        str(s): {"vector": vec, "cubes": c, "direct_mass": d, "bound_mass": b}
        for s, vec, c, d, b in zip(
            used.tolist(), net.vectors_at(used).tolist(), count.tolist(), direct.tolist(), bound.tolist()
        )
    }
    residual = _chain_residual(
        tree, corona, kato, live, (p_s1[root], p_s2[root]), mu * (1.0 + gsq * LN2)
    )

    constants = verify_hypotheses(field, gamma, shifts=shifts).as_dict()
    volberg = stopping.volberg_criterion(field, lam)
    first = stopping.first_generation_levels(tree, volberg, tree.span(0))
    volberg_ratio = sum(mu[first[np.argsort(tree.preorder(first))]].tolist()) / float(mu[0])
    return TbReport(
        carleson_norm=_carleson_sup(g, gsq),
        assembled_bound=assembled,
        violations=violations,
        per_sector=per_sector,
        partition_residual=residual,
        constants=constants,
        eps={"eps1": eps1, "eps2": eps2, "eps3": eps3, "lambda": lam},
        proof_regime=proof_regime,
        sector_count=net.size,
        volberg_packing=volberg_ratio,
    )


def _chain_violations(tree, chain, e, v0, gsq, bound, eps1, eps2, slack=1e-9):
    """One entry per failed check of each ``chain`` row (sector, S1, S2, R),
    sorted by R, then S1, then S2 in ``Cube`` order, then in check order."""
    norm_e = np.linalg.norm(e, axis=-1)
    dot = np.sum(v0 * e, axis=-1)
    checks = (
        ("energy-bound", norm_e <= 1.0 / eps2 + slack, norm_e),
        ("projection-bound", dot >= eps2 / 2.0 - slack, dot),
        ("cone-membership", (dot >= eps1 - slack) & (norm_e <= 1.0 / eps1 + slack), dot),
        ("sector-bound", bound >= gsq * (1.0 - 1e-9), bound - gsq),
    )
    bad = np.flatnonzero(~np.logical_and.reduce([ok for _, ok, _ in checks]))
    sector, s1, s2, r = chain
    bad = bad[np.lexsort(tuple(tree.c_order(x[bad]) for x in (s2, s1, r)))]
    cubes = zip(*(tree.descriptors(x[bad]) for x in (s1, s2, r)))
    return [
        {
            "kind": kind,
            "sector": int(sector[i]),
            "S1": c1,
            "S2": c2,
            "R": cr,
            "value": float(value[i]),
        }
        for i, (c1, c2, cr) in zip(bad, cubes)
        for kind, ok, value in checks
        if not ok[i]
    ]


def _chain_residual(tree, corona, kato, live, chain, weight):
    """Weighted share of the live cubes whose root chain (S1, S2) is not the
    one the sawtooth definition gives, rebuilt without the owner propagation.

    ``stopping.partition_residual`` checks S1.  Below S1, the test-function
    stop on the cube's path moves to the first path cube of its first
    generation, that is the first one where it fires.
    """
    s1, s2 = chain
    t2, top, depth = s1.copy(), tree.level[s1], tree.level[live]
    for d in range(1, tree.L + 1):
        rows = np.flatnonzero(depth - top >= d)
        if not rows.size:
            break
        cube = tree.ancestor(live[rows], top[rows] + d)
        hit = kato(t2[rows], cube, rows)
        t2[rows[hit]] = cube[hit]
    astray = float(np.sum(weight[live[t2 != s2]]) / np.sum(weight))
    return stopping.partition_residual(tree, corona, 0, live, s1, weight) + astray
