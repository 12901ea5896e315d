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

import zlib
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .grid import Cube

__all__ = [
    "StoppingCriterion",
    "StoppingResult",
    "run_stopping",
    "packing_constant",
    "first_generation_ratio",
    "iterated_sawtooth",
    "IteratedDecomposition",
    "volberg_stop",
    "kato_stop",
    "kato_family_stop",
    "corona_stop",
    "martingale_square_check",
    "loewner_geq",
    "box_cubes",
    "bernoulli_criterion",
]


@dataclass(frozen=True)
class StoppingCriterion:
    """Named pure predicate (recursion root, candidate) -> fire?"""

    name: str
    fires: Callable[[Cube, Cube], bool]


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


def _ancestor(cube, level):
    shift = cube.level - level
    return Cube(level, tuple(c >> shift for c in cube.coords))


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


# Concrete criteria ---------------------------------------------------------------


def _avg(field, cube):
    return field.avg_entries(cube, 1)


def volberg_criterion(field, lam):
    inv_memo = {}

    def fires(s, r):
        if r not in inv_memo:
            inv_memo[r] = np.linalg.inv(_avg(field, r))
        val = np.linalg.svd(_avg(field, s) @ inv_memo[r], compute_uv=False)[0]
        return bool(val >= lam)

    return StoppingCriterion(name=f"volberg(lam={lam:g})", fires=fires)


def volberg_stop(root, field, lam):
    """Oscillation stop |W_S W_R^{-1}| >= lam; reports first-generation mass."""
    if lam <= 1.0:
        raise ValueError("lam must exceed 1")
    res = run_stopping(root, volberg_criterion(field, lam), field.grid.L)
    return res, first_generation_ratio(res, field.grid)


def _kato_fires_factory(field, expectation, v0, eps2):
    v0 = np.asarray(v0, dtype=float)

    def fires(s, r):
        e = expectation(r, s)
        if np.linalg.norm(e) > 1.0 / eps2:
            return True
        m = np.linalg.solve(_avg(field, s), _avg(field, r) @ e)
        return bool(float(v0 @ m) < eps2)

    return fires


def kato_stop(root, field, b_values, v0, eps2):
    """Test-function stop for one fixed function given on the root cube.

    Fires when |E_R b| > 1/eps2 or (v0, W_S^{-1} W_R E_R b) < eps2, with S the
    current recursion root.  Returns the result and first-generation mass.
    """
    if not 0.0 < eps2 < 1.0:
        raise ValueError("eps2 must lie in (0, 1)")
    levels = field.expectation_levels(b_values)

    def expectation(r, _s):
        return levels[r.level][r.coords]

    crit = StoppingCriterion(
        name=f"kato(eps2={eps2:g})", fires=_kato_fires_factory(field, expectation, v0, eps2)
    )
    res = run_stopping(root, crit, field.grid.L)
    return res, first_generation_ratio(res, field.grid)


def kato_family_stop(root, field, family, v0, eps2):
    """Test-function stop with the function re-anchored at each recursion root."""
    if not 0.0 < eps2 < 1.0:
        raise ValueError("eps2 must lie in (0, 1)")

    def expectation(r, s):
        return family.expectation(r, s, v0)

    crit = StoppingCriterion(
        name=f"kato-family(eps2={eps2:g})",
        fires=_kato_fires_factory(field, expectation, v0, eps2),
    )
    res = run_stopping(root, crit, field.grid.L)
    return res, first_generation_ratio(res, field.grid)


def corona_criterion(field, eps3):
    inv_memo = {}

    def fires(s, r):
        if s not in inv_memo:
            inv_memo[s] = np.linalg.inv(_avg(field, s))
        dev = inv_memo[s] @ _avg(field, r) - np.eye(field.N)
        return bool(np.linalg.svd(dev, compute_uv=False)[0] > eps3)

    return StoppingCriterion(name=f"corona(eps3={eps3:g})", fires=fires)


def corona_stop(root, field, eps3):
    """Average-oscillation stop |W_S^{-1} W_R - I| > eps3; full packing reported.

    Every cube of a sawtooth other than its top was tested against the top and
    did not fire, so inside every sawtooth the oscillation stays within eps3.
    """
    if eps3 <= 0.0:
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
