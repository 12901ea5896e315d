"""Stopping-time machinery on dyadic trees: selections, sawtooths, packing.

A criterion looks at the current recursion root S and a candidate descendant R
and decides whether to select R.  Selection walks top-down: a selected cube is
not descended into, so the first generation under any root consists of maximal
selected cubes; recursing into each selected cube yields the later
generations.  The sawtooth of a root is its cube-box minus the boxes of its
first-generation cubes, and the sawtooths over all generations partition the
box exactly.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .grid import Cube

__all__ = [
    "CubeTree",
    "StoppingCriterion",
    "StoppingResult",
    "run_stopping",
    "packing_constant",
    "first_generation_ratio",
    "iterated_sawtooth",
    "IteratedDecomposition",
    "owner_levels",
    "chain_owners",
    "first_generation_levels",
    "corona_criterion",
    "volberg_criterion",
    "kato_criterion",
    "kato_fires",
    "volberg_stop",
    "kato_stop",
    "kato_family_stop",
    "corona_stop",
    "martingale_square_check",
    "loewner_geq",
    "box_cubes",
    "bernoulli_criterion",
]


class CubeTree:
    """Every dyadic cube of [0,1)^n down to level ``L`` as one index range.

    Level k holds its ``2**(n*k)`` cubes after the coarser levels, in Morton
    order: the children of a cube are ``2**n`` consecutive indices in
    ``Cube.children()`` order, so the parent of local index i is ``i >> n``
    and the box of a cube is one index range per level.
    """

    def __init__(self, n, L):
        self.n, self.L = n, L
        sizes = [2 ** (n * k) for k in range(L + 1)]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.size = int(self.offsets[-1])
        self.level = np.repeat(np.arange(L + 1), sizes)
        # Grid (level, then C-order coords) position of every index, and back.
        steps = np.array(list(itertools.product((0, 1), repeat=n))).T
        coords, grid = np.zeros((n, 1), dtype=np.int64), []
        for k in range(L + 1):
            if k:
                coords = (2 * coords[:, :, None] + steps[:, None, :]).reshape(n, -1)
            grid.append(self.offsets[k] + np.ravel_multi_index(tuple(coords), (2**k,) * n))
        self.grid_key = np.concatenate(grid)
        self._index = np.argsort(self.grid_key)

    def span(self, k):
        return np.arange(self.offsets[k], self.offsets[k + 1])

    def gather(self, levels):
        """Per-level grid arrays (leading ``n`` axes of side ``2**k``) as one
        array in index order."""
        flat = [arr.reshape((-1,) + arr.shape[self.n :]) for arr in levels]
        return np.concatenate(flat)[self.grid_key]

    def averages(self, field):
        """W_Q for every cube Q, in index order."""
        tree = zip(field.integral_tree(1), field.grid._mu_tree)
        return self.gather([w / mu[..., None, None] for w, mu in tree])

    def index(self, cube):
        flat = np.ravel_multi_index(cube.coords, (2**cube.level,) * self.n)
        return int(self._index[self.offsets[cube.level] + flat])

    def cube(self, idx):
        k = int(self.level[idx])
        flat = int(self.grid_key[idx] - self.offsets[k])
        return Cube(k, tuple(int(c) for c in np.unravel_index(flat, (2**k,) * self.n)))

    def ancestor(self, idx, m):
        """The level-``m`` cube above each cube of ``idx``."""
        k = self.level[idx]
        return self.offsets[m] + ((idx - self.offsets[k]) >> (self.n * (k - m)))

    def children(self, idx):
        k = self.level[idx]
        first = self.offsets[k + 1] + ((idx - self.offsets[k]) << self.n)
        return (first[:, None] + np.arange(2**self.n)).reshape(-1)

    def preorder(self, idx):
        """Sort key of the depth-first preorder of ``box_cubes``."""
        k = self.level[idx]
        return ((idx - self.offsets[k]) << (self.n * (self.L - k))) * (self.L + 1) + k


@dataclass(frozen=True)
class StoppingCriterion:
    """Named pure predicate (recursion root, candidate) -> fire?

    ``many(s, r)``, when set, is the batched form over index arrays of the
    field's ``CubeTree`` and ``fires`` is its one-row call; otherwise the
    batched form loops over ``fires``.
    """

    name: str
    fires: Callable[[Cube, Cube], bool]
    many: Callable | None = None

    def fires_many(self, tree, s, r):
        if self.many is not None:
            return self.many(s, r)
        pairs = ((self.fires(tree.cube(a), tree.cube(b))) for a, b in zip(s, r))
        return np.fromiter(pairs, dtype=bool, count=len(r))


def box_cubes(root, L):
    """All dyadic cubes contained in ``root`` down to level ``L``."""
    out = []
    stack = [root]
    while stack:
        cube = stack.pop()
        out.append(cube)
        if cube.level < L:
            stack.extend(reversed(cube.children()))
    return out


@dataclass
class StoppingResult:
    root: Cube
    L: int
    generations: list
    first_gen: dict
    parent_map: dict
    _sawtooth_cache: dict = dc_field(default_factory=dict, repr=False)

    @property
    def all_cubes(self):
        return [cube for gen in self.generations for cube in gen]

    def sawtooth(self, s):
        """Cubes of the box of ``s`` that sit above its first-generation cubes."""
        if s not in self._sawtooth_cache:
            selected = set(self.first_gen.get(s, ()))
            out = []
            stack = [s]
            while stack:
                cube = stack.pop()
                out.append(cube)
                if cube.level < self.L:
                    for child in reversed(cube.children()):
                        if child not in selected:
                            stack.append(child)
            self._sawtooth_cache[s] = out
        return self._sawtooth_cache[s]

    def partition_residual(self, values=None):
        """Relative defect of the sawtooth partition of the box.

        ``values`` maps cubes to nonnegative numbers; default is cube counting.
        """
        box = box_cubes(self.root, self.L)
        weigh = (lambda c: 1.0) if values is None else values
        total = sum(weigh(c) for c in box)
        pieces = sum(
            weigh(c) for s in self.all_cubes for c in self.sawtooth(s)
        )
        return abs(pieces - total) / max(total, 1e-300)


def run_stopping(root, criterion, L):
    """Full stopping decomposition under ``root`` on a depth-``L`` tree."""
    generations = [[root]]
    first_gen = {}
    parent_map = {}
    current = [root]
    while current:
        nxt = []
        for s in current:
            selected = _first_generation(s, criterion, L)
            first_gen[s] = tuple(selected)
            for r in selected:
                parent_map[r] = s
            nxt.extend(selected)
        if not nxt:
            break
        generations.append(nxt)
        current = nxt
    return StoppingResult(
        root=root, L=L, generations=generations, first_gen=first_gen, parent_map=parent_map
    )


def _first_generation(s, criterion, L):
    out = []
    if s.level >= L:
        return out
    stack = list(reversed(s.children()))
    while stack:
        cand = stack.pop()
        if criterion.fires(s, cand):
            out.append(cand)
        elif cand.level < L:
            stack.extend(reversed(cand.children()))
    return out


def packing_constant(result, grid):
    """(1/mu(Q)) * sum of mu(R) over every stopping generation, root included."""
    total = sum(grid.measure(r) for r in result.all_cubes)
    return total / grid.measure(result.root)


def first_generation_ratio(result, grid):
    mass = sum(grid.measure(r) for r in result.first_gen.get(result.root, ()))
    return mass / grid.measure(result.root)


@dataclass
class IteratedDecomposition:
    root: Cube
    pieces: dict

    def partition_residual(self, L, values=None):
        box = box_cubes(self.root, L)
        weigh = (lambda c: 1.0) if values is None else values
        total = sum(weigh(c) for c in box)
        got = sum(weigh(c) for piece in self.pieces.values() for c in piece)
        return abs(got - total) / max(total, 1e-300)


def iterated_sawtooth(root, criteria, L):
    """Nested decomposition for a finite list of criteria.

    Every cube of the box lands in exactly one piece keyed by the chain
    ``(S_1, ..., S_k)`` with ``S_1`` in the first decomposition under ``root``
    and each later ``S_i`` in the decomposition of criterion ``i`` rooted at
    ``S_{i-1}``.
    """
    if not 1 <= len(criteria) <= 3:
        raise ValueError("iterated decomposition supports 1 to 3 criteria")
    # Walk the box top-down.  A cube inherits its parent's chain.  If criterion
    # i fires at it against the chain's i-th cube, it replaces that cube and,
    # as the root of every later decomposition, all later ones.  So each
    # criterion only looks at cubes inside the piece its decomposition refines.
    k = len(criteria)
    pieces = {}
    stack = [(root, (root,) * k)]
    while stack:
        cube, chain = stack.pop()
        if cube.level > root.level:
            for i, crit in enumerate(criteria):
                if crit.fires(chain[i], cube):
                    chain = chain[:i] + (cube,) * (k - i)
                    break
        pieces.setdefault(chain, []).append(cube)
        if cube.level < L:
            stack.extend((child, chain) for child in reversed(cube.children()))
    return IteratedDecomposition(root=root, pieces=pieces)


# Level-array walks ---------------------------------------------------------------


def owner_levels(tree, crit, j):
    """Owner, under the level-``j`` cube above it, of every cube at levels
    ``j..L``, one index array per level: a cube keeps its parent's owner
    unless ``crit`` fires at it against that owner, and then owns itself."""
    own = [tree.span(j)]
    for k in range(j + 1, tree.L + 1):
        cubes = tree.span(k)
        par = np.repeat(own[-1], 2**tree.n)
        own.append(np.where(crit.fires_many(tree, par, cubes), cubes, par))
    return own


def chain_owners(tree, s1, r, fires):
    """Second owner of each row: walk the path of ``r[i]`` down from ``s1[i]``
    and move to a path cube whenever ``fires(owner, cube, rows)`` fires; the
    rows let the rule read per-row data."""
    s2 = s1.copy()
    top, depth = tree.level[s1], tree.level[r]
    for m in range(1, tree.L + 1):
        rows = np.flatnonzero((top < m) & (depth >= m))
        if rows.size:
            cube = tree.ancestor(r[rows], m)
            hit = fires(s2[rows], cube, rows)
            s2[rows[hit]] = cube[hit]
    return s2


def first_generation_levels(tree, crit, anchors):
    """First generations of anchors all at one level, one level at a time:
    the cubes below an anchor where ``crit`` fires against it with no fired
    cube in between."""
    stem = root = np.asarray(anchors)
    picked = [np.empty(0, int)]
    while stem.size and tree.level[stem[0]] < tree.L:
        cand, root = tree.children(stem), np.repeat(root, 2**tree.n)
        fired = crit.fires_many(tree, root, cand)
        picked.append(cand[fired])
        stem, root = cand[~fired], root[~fired]
    return np.concatenate(picked)


# Concrete criteria ---------------------------------------------------------------


def _field_criterion(name, field, rule):
    """Criterion from ``rule(W_S, W_R, r)``, batched over the average stacks
    of index arrays of the field's cube tree; ``fires`` is its one-row call."""
    tree = CubeTree(field.grid.n, field.grid.L)
    avg = tree.averages(field)

    def many(s, r):
        return rule(avg[s], avg[r], r)

    def fires(s, r):
        return bool(many(np.array([tree.index(s)]), np.array([tree.index(r)]))[0])

    return StoppingCriterion(name, fires, many)


def volberg_criterion(field, lam):
    """Fires when |W_S W_R^{-1}| >= lam."""

    def rule(w_s, w_r, r):
        return np.linalg.svd(w_s @ np.linalg.inv(w_r), compute_uv=False)[:, 0] >= lam

    return _field_criterion(f"volberg(lam={lam:g})", field, rule)


def volberg_stop(root, field, lam):
    """Oscillation stop |W_S W_R^{-1}| >= lam; reports first-generation mass."""
    if not lam > 1.0:
        raise ValueError("lam must exceed 1")
    res = run_stopping(root, volberg_criterion(field, lam), field.grid.L)
    return res, first_generation_ratio(res, field.grid)


def kato_fires(w_s, w_r, e, v0, eps2):
    """Test-function stop, batched over rows: |E_R b| > 1/eps2 or
    (v0, W_S^{-1} W_R E_R b) < eps2."""
    m = np.linalg.solve(w_s, w_r @ e[..., None])[..., 0]
    return (np.linalg.norm(e, axis=-1) > 1.0 / eps2) | (np.sum(v0 * m, axis=-1) < eps2)


def kato_criterion(field, v0, eps2, expectation):
    """``kato_fires`` for a fixed v0; ``expectation(W_S, W_R, r)`` gives the
    rows E_R b of the test function anchored at S."""
    if not 0.0 < eps2 < 1.0:
        raise ValueError("eps2 must lie in (0, 1)")
    v0 = np.asarray(v0, dtype=float)

    def rule(w_s, w_r, r):
        return kato_fires(w_s, w_r, expectation(w_s, w_r, r), v0, eps2)

    return _field_criterion(f"kato(eps2={eps2:g})", field, rule)


def kato_stop(root, field, b_values, v0, eps2):
    """Test-function stop for one fixed function given on the root cube.

    Fires when |E_R b| > 1/eps2 or (v0, W_S^{-1} W_R E_R b) < eps2, with S the
    current recursion root.  Returns the result and first-generation mass.
    """
    levels = CubeTree(field.grid.n, field.grid.L).gather(field.expectation_levels(b_values))
    crit = kato_criterion(field, v0, eps2, lambda w_s, w_r, r: levels[r])
    res = run_stopping(root, crit, field.grid.L)
    return res, first_generation_ratio(res, field.grid)


def kato_family_stop(root, field, family, v0, eps2):
    """Test-function stop with the function re-anchored at each recursion root."""
    v0 = np.asarray(v0, dtype=float)
    crit = kato_criterion(field, v0, eps2, lambda w_s, w_r, r: family.expectations(w_s, w_r, v0))
    res = run_stopping(root, crit, field.grid.L)
    return res, first_generation_ratio(res, field.grid)


def corona_criterion(field, eps3):
    """Fires when |W_S^{-1} W_R - I| > eps3."""
    eye = np.eye(field.N)

    def rule(w_s, w_r, r):
        return np.linalg.svd(np.linalg.inv(w_s) @ w_r - eye, compute_uv=False)[:, 0] > eps3

    return _field_criterion(f"corona(eps3={eps3:g})", field, rule)


def corona_stop(root, field, eps3):
    """Average-oscillation stop |W_S^{-1} W_R - I| > eps3; full packing reported.

    Every cube of a sawtooth other than its top was tested against the top and
    did not fire, so inside every sawtooth the oscillation stays within eps3.
    """
    if not eps3 > 0.0:
        raise ValueError("eps3 must be positive")
    res = run_stopping(root, corona_criterion(field, eps3), field.grid.L)
    return res, packing_constant(res, field.grid)


def loewner_geq(a, b, tol=0.0):
    """True iff ``A - B`` has smallest eigenvalue >= ``-tol``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return bool(np.linalg.eigvalsh((d + d.T) / 2.0)[0] >= -tol)


def martingale_square_check(root, field, result, rel_tol=1e-9):
    """Stopped martingale square bound: sum (W_R - W_{R*})^2 mu(R) against
    ((W^2)_Q - (W_Q)^2) mu(Q) in the positive-semidefinite order."""
    g = field.grid
    lhs = np.zeros((field.N, field.N))
    for r in result.all_cubes:
        if r == root:
            continue
        diff = field.avg_entries(r, 1) - field.avg_entries(result.parent_map[r], 1)
        lhs += diff @ diff * g.measure(r)
    avg_w = field.avg_entries(root, 1)
    rhs = (field.avg_entries(root, 2) - avg_w @ avg_w) * g.measure(root)
    scale = float(np.max(np.abs(np.linalg.eigvalsh((rhs + rhs.T) / 2.0))))
    ok = loewner_geq(rhs, lhs, rel_tol * max(scale, 1e-300))
    return lhs, rhs, ok


def bernoulli_criterion(probability, seed):
    """Pure pseudo-random criterion: fires on a stable hash of (root, cand)."""

    def fires(s, r):
        tag = f"{seed}|{s.level}:{s.coords}|{r.level}:{r.coords}"
        return (zlib.crc32(tag.encode()) % 2**32) / 2.0**32 < probability

    return StoppingCriterion(name=f"bernoulli(p={probability:g})", fires=fires)
