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
from .cones import build_net, net_size_estimate
from .grid import Cube, _coarsen, root_cube
from .weights import thewest_constant, default_shifts

__all__ = [
    "LN2",
    "CarlesonField",
    "gamma_zero",
    "gamma_constant",
    "gamma_martingale",
    "gamma_random",
    "make_gamma",
    "carleson_norm",
    "testfun_carleson",
    "TestFamily",
    "CanonicalFamily",
    "canonical_family",
    "HypothesisConstants",
    "verify_hypotheses",
    "TbReport",
    "tb_run",
    "feasible_eps1",
]

LN2 = math.log(2.0)

_NET_CACHE = {}


def _cached_net(N, eps1, seed=0):
    key = (N, round(float(eps1), 12), seed)
    if key not in _NET_CACHE:
        _NET_CACHE[key] = build_net(N, eps1, seed=seed)
    return _NET_CACHE[key]


@dataclass
class CarlesonField:
    """One M x N matrix per dyadic cube, stored as per-level arrays."""

    grid: object
    M: int
    N: int
    levels: list

    def value(self, cube):
        return self.levels[cube.level][cube.coords]

    def norms_sq(self, norm="op"):
        out = []
        for arr in self.levels:
            if norm == "op":
                out.append(np.linalg.svd(arr, compute_uv=False)[..., 0] ** 2)
            elif norm == "fro":
                out.append(np.sum(arr**2, axis=(-2, -1)))
            else:
                raise ValueError(f"unknown matrix norm {norm!r}")
        return out


def gamma_zero(grid, M, N):
    side_levels = [np.zeros((2**k,) * grid.n + (M, N)) for k in range(grid.L + 1)]
    return CarlesonField(grid, M, N, side_levels)


def gamma_constant(grid, M, N, value=None):
    if value is None:
        value = np.zeros((M, N))
        value[0, 0] = 1.0
    value = np.asarray(value, dtype=float).reshape(M, N)
    levels = [
        np.broadcast_to(value, (2**k,) * grid.n + (M, N)).copy() for k in range(grid.L + 1)
    ]
    return CarlesonField(grid, M, N, levels)


def gamma_martingale(field, rows=1):
    """Rows of the jump of the weight averages between a cube and its parent."""
    g = field.grid
    levels = [np.zeros((1,) * g.n + (rows, field.N))]
    prev = field.integral_tree(1)[0] / g._mu_tree[0][..., None, None]
    for k in range(1, g.L + 1):
        avg_k = field.integral_tree(1)[k] / g._mu_tree[k][..., None, None]
        # Broadcast each parent average onto its 2**n children.
        rep = prev
        for axis in range(g.n):
            rep = np.repeat(rep, 2, axis=axis)
        levels.append((avg_k - rep)[..., :rows, :])
        prev = avg_k
    return CarlesonField(g, rows, field.N, levels)


def gamma_random(grid, M, N, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    levels = [
        rng.uniform(-scale, scale, size=(2**k,) * grid.n + (M, N))
        for k in range(grid.L + 1)
    ]
    return CarlesonField(grid, M, N, levels)


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


def _box_mass_tree(grid, level_masses):
    """acc[k][Q] = sum of per-cube masses over the box of Q."""
    acc = [None] * len(level_masses)
    acc[-1] = level_masses[-1].copy()
    for k in range(len(level_masses) - 2, -1, -1):
        acc[k] = level_masses[k] + _coarsen(acc[k + 1], grid.n)
    return acc


def carleson_norm(gamma, grid=None, norm="op"):
    """sup over cubes of the box-averaged Whitney mass of the multiplier."""
    g = gamma.grid if grid is None else grid
    masses = [
        nsq * g._mu_tree[k] * LN2 for k, nsq in enumerate(gamma.norms_sq(norm))
    ]
    acc = _box_mass_tree(g, masses)
    best = 0.0
    for k in range(g.L + 1):
        ratios = acc[k] / g._mu_tree[k]
        best = max(best, float(ratios.max()))
    return best


def testfun_carleson(gamma, b_values, root, field, norm="op"):
    """Whitney-discretized square integral of gamma applied to E_t b over a box."""
    g = field.grid
    exps = field.expectation_levels(b_values)
    total = 0.0
    for k in range(root.level, g.L + 1):
        span = tuple(
            slice(c * 2 ** (k - root.level), (c + 1) * 2 ** (k - root.level))
            for c in root.coords
        )
        ge = np.einsum("...mn,...n->...m", gamma.levels[k][span], exps[k][span])
        mass = np.sum(ge**2, axis=-1) * g._mu_tree[k][span] * LN2
        total += float(mass.sum())
    return total


class TestFamily:
    """Rule producing one test function per (cube, unit direction).

    Subclasses provide ``b_values(S, v0)`` on the full grid (zero outside S).
    Weighted averages over subcubes default to the exact tree computation.
    """

    def __init__(self, field):
        self.field = field
        self._exp_cache = {}

    def b_values(self, s_cube, v0):
        raise NotImplementedError

    def _levels_for(self, s_cube, v0):
        key = (s_cube, tuple(np.round(np.asarray(v0, float), 15)))
        if key not in self._exp_cache:
            self._exp_cache[key] = self.field.expectation_levels(self.b_values(s_cube, v0))
        return self._exp_cache[key]

    def expectation(self, r_cube, s_cube, v0):
        return self._levels_for(s_cube, v0)[r_cube.level][r_cube.coords]

    def _directions(self, samples, seed):
        """Per cube, in ``grid.cubes()`` order: the unit vectors, then
        ``max(samples - N, 0)`` normalised Gaussian draws from ``seed``."""
        g, N = self.field.grid, self.field.N
        cubes = sum(2 ** (g.n * k) for k in range(g.L + 1))
        v = np.random.default_rng(seed).standard_normal((cubes, max(samples - N, 0), N))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        return np.concatenate([np.broadcast_to(np.eye(N), (cubes, N, N)), v], axis=1)

    def _sampled_sup(self, value, samples, seed):
        """sqrt of the sup over cubes Q and sampled v of value(Q, b_Q^v) / mu(Q)."""
        g = self.field.grid
        worst = 0.0
        for cube, dirs in zip(g.cubes(), self._directions(samples, seed)):
            for v0 in dirs:
                worst = max(worst, value(cube, self.b_values(cube, v0)) / g.measure(cube))
        return math.sqrt(worst)

    def c3(self, samples=4, seed=0):
        """Measured normalized energy sup over sampled (cube, direction)."""
        mu = self.field.grid.mu * self.field.grid.cell_volume
        return self._sampled_sup(
            lambda q, b: float(np.sum(np.sum(b**2, axis=-1) * mu)), samples, seed
        )

    def c4(self, gamma, samples=4, seed=0):
        """Measured test-function Carleson sup over sampled (cube, direction)."""
        return self._sampled_sup(
            lambda q, b: testfun_carleson(gamma, b, q, self.field), samples, seed
        )


class CanonicalFamily(TestFamily):
    """b_Q^v(x) = W(x)^{-1} W_Q v on Q, zero outside.

    Then int_R W b dmu = mu(R) W_Q v for every R inside Q, so the weighted
    average over R is W_R^{-1} W_Q v and the normalization (v, E_Q b) = 1 is
    an algebraic identity.
    """

    def b_values(self, s_cube, v0):
        field = self.field
        g = field.grid
        out = np.zeros(g.mu.shape + (field.N,))
        sl = s_cube.cell_slices(g.L)
        target = field.avg_entries(s_cube, 1) @ np.asarray(v0, dtype=float)
        out[sl] = np.einsum("...ij,j->...i", field.cell_power(-1)[sl], target)
        return out

    def expectation(self, r_cube, s_cube, v0):
        field = self.field
        return np.linalg.solve(
            field.avg_entries(r_cube, 1),
            field.avg_entries(s_cube, 1) @ np.asarray(v0, dtype=float),
        )

    def _sup_form(self, forms):
        """sqrt of the sup over cubes Q and unit v of u^T F_Q u / mu(Q), u = W_Q v,
        for per-level arrays ``forms`` of N x N matrices F_Q: the top eigenvalue
        of W_Q F_Q W_Q, one batched ``eigvalsh`` per level."""
        g, N = self.field.grid, self.field.N
        worst = 0.0
        for k, form in enumerate(forms):
            mu = g._mu_tree[k].reshape(-1)
            avg = self.field.integral_tree(1)[k].reshape(-1, N, N) / mu[:, None, None]
            m = avg @ form.reshape(-1, N, N) @ avg
            top = np.linalg.eigvalsh((m + np.swapaxes(m, -1, -2)) / 2.0)[:, -1]
            worst = max(worst, float(np.max(top / mu)))
        return math.sqrt(worst)

    def c3(self):
        """Energy of b_Q^v over mu(Q) is u^T (W^-2)_Q u with u = W_Q v."""
        return self._sup_form(self.field.integral_tree(-2))

    def c4(self, gamma):
        """E_R b_Q^v = W_R^-1 u for R in Q, so the Carleson sum is u^T M_Q u with
        M_Q = ln2 sum_{R in Q} mu(R) W_R^-1 gamma_R^T gamma_R W_R^-1."""
        g = self.field.grid
        masses = []
        for k, mu in enumerate(g._mu_tree):
            avg = self.field.integral_tree(1)[k] / mu[..., None, None]
            x = np.linalg.solve(avg, np.swapaxes(gamma.levels[k], -1, -2))
            masses.append(x @ np.swapaxes(x, -1, -2) * (mu * LN2)[..., None, None])
        return self._sup_form(_box_mass_tree(g, masses))


def canonical_family(field):
    return CanonicalFamily(field)


@dataclass
class HypothesisConstants:
    C1: float
    C2: float
    C3: float
    C4: float

    def as_dict(self):
        return {"C1": self.C1, "C2": self.C2, "C3": self.C3, "C4": self.C4}


def verify_hypotheses(field, gamma, fam=None, shifts=None):
    """Measured doubling, squared-average log-det, energy and test Carleson constants."""
    g = field.grid
    if fam is None:
        fam = canonical_family(field)
    if shifts is None:
        shifts = default_shifts(g)
    c1 = g.doubling_constant(shifts)
    c2 = math.sqrt(thewest_constant(field, shifts))
    c3 = fam.c3()
    c4 = fam.c4(gamma)
    return HypothesisConstants(C1=c1, C2=c2, C3=c3, C4=c4)


def feasible_eps1(N, eps2, budget=200_000):
    """Proof-compatible eps1 (eps2/2) when its net fits the budget, else the
    smallest feasible larger aperture (which leaves the proof's regime)."""
    target = eps2 / 2.0
    if net_size_estimate(N, target) <= budget:
        return target
    for eps1 in (0.1, 0.15, 0.2, 0.3, 0.4, 0.5):
        if eps1 > target and net_size_estimate(N, eps1) <= budget:
            return eps1
    return 0.5


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


def tb_run(
    field,
    gamma,
    fam=None,
    eps1=None,
    eps2=0.1,
    eps3=None,
    lam=16.0,
    norm="op",
    shifts=None,
    residual_sectors=4,
):
    """Numerical proof-skeleton run for one instance.

    Per active net direction the runner builds the weight corona and the
    test-function stopping trees, walks every cube of every box through its
    sawtooth owners, checks the averaged test function lands in the truncated
    cone, and accumulates the cone-inequality bound next to the directly
    computed Carleson norm.
    """
    g = field.grid
    if fam is None:
        fam = canonical_family(field)
    if not 0.0 < eps2 < 1.0:
        raise ValueError("eps2 must lie in (0,1)")
    if eps3 is None:
        eps3 = eps2**2 / 8.0
    if eps1 is None:
        eps1 = feasible_eps1(field.N, eps2)
    if lam <= 1.0:
        raise ValueError("lam must exceed 1")
    proof_regime = (eps1 <= eps2 / 2.0 + 1e-12) and (eps3 < eps2**2 / 4.0)
    net = _cached_net(field.N, eps1)
    L = g.L

    # Per-cube multiplier data and sector assignment.
    norms_sq = gamma.norms_sq(norm)
    masses = [nsq * g._mu_tree[k] * LN2 for k, nsq in enumerate(norms_sq)]
    direct_acc = _box_mass_tree(g, masses)

    sector_of = {}
    violations = []
    seen_violations = set()
    for k in range(L + 1):
        arr = gamma.levels[k]
        nsq = norms_sq[k]
        flat = arr.reshape(-1, gamma.M, gamma.N)
        flat_nsq = nsq.reshape(-1)
        live = np.nonzero(flat_nsq > 0.0)[0]
        if live.size == 0:
            continue
        _, _, vt = np.linalg.svd(flat[live])
        v1 = vt[:, 0, :]
        idx = net.cover_indices(v1)
        dots = np.einsum("ij,ij->i", v1, net.vectors[idx])
        coords_all = list(np.ndindex(*arr.shape[: g.n])) if g.n > 1 else [
            (i,) for i in range(arr.shape[0])
        ]
        for pos, j, d in zip(np.array(coords_all)[live], idx, dots):
            cube = Cube(k, tuple(int(x) for x in pos))
            sector_of[cube] = int(j)
            if d < net.required_cos:
                key = ("net-gap", cube)
                if key not in seen_violations:
                    seen_violations.add(key)
                    violations.append(
                        {
                            "kind": "net-gap",
                            "cube": cube.descriptor(),
                            "value": float(d),
                        }
                    )
    # gamma_sq per cube from the level arrays (direct lookups).
    gamma_sq = {
        cube: float(norms_sq[cube.level][cube.coords]) for cube in sector_of
    }

    corona_crit = stopping.corona_criterion(field, eps3)
    first_w = {}

    def first_gen_w(s):
        if s not in first_w:
            first_w[s] = frozenset(stopping._first_generation(s, corona_crit, L))
        return first_w[s]

    kato_first = {}

    def first_gen_b(sector, s):
        key = (sector, s)
        if key not in kato_first:
            v0 = net.vectors[sector]
            crit = stopping.StoppingCriterion(
                name="kato",
                fires=stopping._kato_fires_factory(
                    field, lambda r, sr: fam.expectation(r, sr, v0), v0, eps2
                ),
            )
            kato_first[key] = frozenset(stopping._first_generation(s, crit, L))
        return kato_first[key]

    def owner(cube, anchor, first_gen):
        s = anchor
        while s.level < cube.level:
            sel = first_gen(s)
            for level in range(s.level + 1, cube.level + 1):
                anc = stopping._ancestor(cube, level)
                if anc in sel:
                    s = anc
                    break
            else:
                return s
        return s

    factor = (2.0 / eps1**3) ** 2
    exp_cache = {}
    sector_stats = {}
    assembled_best = 0.0
    carleson_best = 0.0
    checked = set()
    top = root_cube(g.n)
    chains = {}

    for q in g.cubes():
        mu_q = g.measure(q)
        direct_q = float(direct_acc[q.level][q.coords])
        carleson_best = max(carleson_best, direct_q / mu_q)
        assembled_q = 0.0
        for r in stopping.box_cubes(q, L):
            if r not in sector_of:
                continue
            sector = sector_of[r]
            s1 = owner(r, q, first_gen_w)
            s2 = owner(r, s1, lambda s: first_gen_b(sector, s))
            if q.level == 0:
                chains[r] = (s1, s2)
            ck = (sector, s1, s2, r)
            if ck in exp_cache:
                e_r, ge_sq = exp_cache[ck]
            else:
                v0 = net.vectors[sector]
                e_r = fam.expectation(r, s2, v0)
                ge = gamma.levels[r.level][r.coords] @ e_r
                ge_sq = float(ge @ ge)
                exp_cache[ck] = (e_r, ge_sq)
                _check_chain(
                    e_r,
                    v0,
                    eps1,
                    eps2,
                    gamma_sq[r],
                    ge_sq,
                    factor,
                    (sector, s1, s2, r),
                    violations,
                    seen_violations,
                )
            assembled_q += factor * ge_sq * g.measure(r) * LN2
            st = sector_stats.setdefault(
                sector, {"cubes": 0, "direct_mass": 0.0, "bound_mass": 0.0}
            )
            if (sector, r) not in checked:
                checked.add((sector, r))
                st["cubes"] += 1
                st["direct_mass"] += gamma_sq[r] * g.measure(r) * LN2
                st["bound_mass"] += factor * ge_sq * g.measure(r) * LN2
        assembled_best = max(assembled_best, assembled_q / mu_q)

    # Independent partition check: the set-based nested sawtooths must cover
    # the box exactly, and hold each cube of a checked sector in the piece
    # keyed by the chain the owner walks gave it under the root.
    def weigh(c):
        return g.measure(c) * (1.0 + gamma_sq.get(c, 0.0) * LN2)

    total = sum(weigh(c) for c in stopping.box_cubes(top, L))
    residual = 0.0
    active = sorted(
        sector_stats, key=lambda s: sector_stats[s]["direct_mass"], reverse=True
    )
    for sector in active[:residual_sectors]:
        v0 = net.vectors[sector]
        kato_crit = stopping.StoppingCriterion(
            name="kato",
            fires=stopping._kato_fires_factory(
                field, lambda r, sr: fam.expectation(r, sr, v0), v0, eps2
            ),
        )
        decomp = stopping.iterated_sawtooth(top, [corona_crit, kato_crit], L)
        astray = sum(
            weigh(c)
            for key, piece in decomp.pieces.items()
            for c in piece
            if sector_of.get(c) == sector and chains[c] != key
        )
        residual = max(residual, decomp.partition_residual(L, values=weigh), astray / total)
    if not active:
        decomp = stopping.iterated_sawtooth(top, [corona_crit], L)
        residual = decomp.partition_residual(L)

    constants = verify_hypotheses(field, gamma, fam, shifts=shifts).as_dict()
    _, volberg_ratio = stopping.volberg_stop(top, field, lam)

    per_sector = {
        str(s): {
            "vector": [float(x) for x in net.vectors[s]],
            "cubes": sector_stats[s]["cubes"],
            "direct_mass": sector_stats[s]["direct_mass"],
            "bound_mass": sector_stats[s]["bound_mass"],
        }
        for s in sorted(sector_stats)
    }
    return TbReport(
        carleson_norm=carleson_best,
        assembled_bound=assembled_best,
        violations=violations,
        per_sector=per_sector,
        partition_residual=residual,
        constants=constants,
        eps={"eps1": eps1, "eps2": eps2, "eps3": eps3, "lambda": lam},
        proof_regime=proof_regime,
        sector_count=net.size,
        volberg_packing=volberg_ratio,
    )


def _check_chain(
    e_r, v0, eps1, eps2, gsq, ge_sq, factor, tag, violations, seen, slack=1e-9
):
    sector, s1, s2, r = tag
    ident = (sector, s1, s2, r)
    norm_e = float(np.linalg.norm(e_r))
    dot = float(np.asarray(v0) @ e_r)
    checks = [
        ("energy-bound", norm_e <= 1.0 / eps2 + slack, norm_e),
        ("projection-bound", dot >= eps2 / 2.0 - slack, dot),
        ("cone-membership", dot >= eps1 - slack and norm_e <= 1.0 / eps1 + slack, dot),
        ("sector-bound", factor * ge_sq >= gsq * (1.0 - 1e-9), factor * ge_sq - gsq),
    ]
    for kind, ok, value in checks:
        if ok:
            continue
        key = (kind, ident)
        if key in seen:
            continue
        seen.add(key)
        violations.append(
            {
                "kind": kind,
                "sector": int(sector),
                "S1": s1.descriptor(),
                "S2": s2.descriptor(),
                "R": r.descriptor(),
                "value": float(value),
            }
        )
