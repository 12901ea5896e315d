"""Stopping-time machinery on dyadic trees: selections, sawtooths, packing.

A criterion looks at the current recursion root S and a candidate descendant R
and decides whether to select R.  Selection walks top-down: a selected cube is
not descended into, so the first generation under any root consists of maximal
selected cubes; recursing into each selected cube yields the later
generations.  The sawtooth of a root is its cube-box minus the boxes of its
first-generation cubes, and the sawtooths over all generations partition the
box exactly.

Every walk runs on index arrays of the grid's one ``CubeTree``
(``Grid.tree``).  ``anchor_owners`` propagates owners down the levels under
every anchor at once and gives every decomposition;
``first_generation_levels`` rebuilds first generations for the independent
``partition_residual`` check and the Volberg packing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import CubeTree

__all__ = [
    "StoppingCriterion",
    "StoppingResult",
    "run_stopping",
    "packing_constant",
    "first_generation_ratio",
    "AnchorOwners",
    "anchor_owners",
    "chain_owners",
    "first_generation_levels",
    "partition_residual",
    "corona_criterion",
    "volberg_criterion",
    "kato_criterion",
    "norm_exceeds",
    "kato_fires",
    "volberg_stop",
    "kato_family_stop",
    "corona_stop",
    "martingale_square_check",
    "loewner_geq",
]


@dataclass(frozen=True)
class StoppingCriterion:
    """Named pure predicate (recursion root S, candidate R) -> fire?, batched:
    ``fires_many(tree, s, r)`` decides every row of the index arrays ``s`` and
    ``r`` of the ``CubeTree`` ``tree``."""

    name: str
    fires_many: Callable


@dataclass
class StoppingResult:
    """A stopping decomposition under ``root`` as index arrays of ``tree``.

    ``owner[i]`` is the stop whose sawtooth holds ``cubes[i]``, the box of
    ``root`` level by level; the stops are the cubes that own themselves.
    ``stops`` lists them generation by generation (``generations`` splits
    it), each generation in box preorder, and ``parents`` holds the parent
    stop of each (-1 at the root).
    """

    tree: CubeTree
    root: int
    criterion: StoppingCriterion
    cubes: np.ndarray
    owner: np.ndarray
    stops: np.ndarray
    parents: np.ndarray
    generations: list


def run_stopping(root, criterion, tree):
    """Full stopping decomposition under the cube ``root`` of ``tree``.

    The parent stop of a stop is the owner of its parent cube, and a stop's
    generation is one more than its parent stop's.
    """
    cubes = tree.box(tree.index(root))
    owner = np.concatenate(anchor_owners(tree, criterion, cubes[0], root.level).levels(root.level))
    owner_of = np.full(tree.size, -1)
    owner_of[cubes] = owner
    stops = cubes[owner == cubes]
    stops = stops[np.argsort(tree.preorder(stops))]
    level = tree.level[stops]
    parents = np.full(len(stops), -1)
    below = level > root.level
    parents[below] = owner_of[tree.ancestor(stops[below], level[below] - 1)]
    depth = np.zeros(tree.size, dtype=int)
    for k in range(root.level + 1, tree.L + 1):
        at = level == k
        depth[stops[at]] = depth[parents[at]] + 1
    order = np.argsort(depth[stops], kind="stable")
    stops, parents = stops[order], parents[order]
    ends = np.cumsum(np.bincount(depth[stops]))[:-1]
    return StoppingResult(
        tree, cubes[0], criterion, cubes, owner, stops, parents, np.split(stops, ends)
    )


def packing_constant(result, grid):
    """(1/mu(Q)) * sum of mu(R) over every stopping generation, root included."""
    mu = grid.mu_stack
    return sum(mu[result.stops].tolist()) / float(mu[result.root])


def first_generation_ratio(result, grid):
    mu = grid.mu_stack
    first = result.generations[1] if len(result.generations) > 1 else []
    return sum(mu[first].tolist()) / float(mu[result.root])


# Level-array walks ---------------------------------------------------------------


class AnchorOwners:
    """Owners in the box of ``top`` under all its anchors down to a deepest
    level, as each level's distinct (owner, cube) pairs (``anchor_owners``).

    Entry ``i`` of each list is level ``level(top) + i``, whose box cubes in
    order are its columns: column c has the children ``c * 2**n + s``.
    ``owner[i]`` and ``column[i]`` give each pair, the ``(cube, cube)`` pairs
    first in column order (every column down to the deepest anchor level,
    below it only where the criterion fired); ``step[i][p, s]`` is the pair
    of the child in slot ``s`` of pair ``p``'s cube under the same anchor.
    """

    def __init__(self, tree, top, owner, column, step):
        self.tree, self.top = tree, top
        self.owner, self.column, self.step = owner, column, step

    def pair_ids(self, j):
        """The pair of every column under its level-``j`` anchor, one array
        per level from ``j`` down."""
        skip = j - int(self.tree.level[self.top])
        ids = np.arange(2 ** (self.tree.n * skip))
        yield ids
        for step in self.step[skip:]:
            ids = step[ids].reshape(-1)
            yield ids

    def levels(self, j):
        """The owner of every column under its level-``j`` anchor, one array
        per level from ``j`` down."""
        skip = j - int(self.tree.level[self.top])
        return [own[ids] for own, ids in zip(self.owner[skip:], self.pair_ids(j))]


def anchor_owners(tree, crit, top, deepest):
    """Owners under every anchor of ``top``'s box down to level ``deepest``
    in one top-down propagation: a cube keeps its parent's owner unless
    ``crit`` fires at it against that owner, and then owns itself.  A level's
    rows are its parent level's distinct pairs against their cube's children,
    so each (owner, cube) pair is decided once however many anchors share it,
    which is exact as a criterion is a pure predicate of the pair."""
    slots = 2**tree.n
    cubes = np.array([top])
    owner, column, step = [cubes], [np.zeros(1, dtype=np.intp)], []
    for k in range(tree.level[top], tree.L):
        cubes = tree.children(cubes)
        col = (column[-1][:, None] * slots + np.arange(slots)).reshape(-1)
        par = np.repeat(owner[-1], slots)
        fired = crit.fires_many(tree, par, cubes[col])
        if k < deepest:
            own = np.arange(len(cubes))
        else:
            # The distinct fired columns, sorted, from a mask over the columns.
            mask = np.zeros(len(cubes), dtype=bool)
            mask[col[fired]] = True
            own = np.flatnonzero(mask)
        self_pair = np.empty(len(cubes), dtype=np.intp)
        self_pair[own] = np.arange(len(own))
        kept = ~fired
        step.append(np.where(kept, len(own) + np.cumsum(kept) - 1, self_pair[col]).reshape(-1, slots))
        owner.append(np.concatenate([cubes[own], par[kept]]))
        column.append(np.concatenate([own, col[kept]]))
    return AnchorOwners(tree, top, owner, column, step)


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


def partition_residual(tree, crit, top, cubes, owners, weight):
    """Weighted share of ``cubes`` whose ``owners`` are not the stops of the
    sawtooths that hold them under ``top``, rebuilt without the owner
    propagation.

    The stops are ``top`` and, level by level, the first generation of every
    stop.  The sawtooth of S is its box minus the boxes of its first
    generation, so a cube's owner is the deepest stop that holds it.
    ``weight`` holds one nonnegative number per tree index; the share is of
    its sum over the box of ``top``.
    """
    j = int(tree.level[top])
    stop = np.zeros(tree.size, dtype=bool)
    stop[top] = True
    for k in range(j, tree.L):
        span = tree.span(k)
        if stop[span].any():
            stop[first_generation_levels(tree, crit, span[stop[span]])] = True
    deepest = np.arange(tree.size)
    for k in range(j + 1, tree.L + 1):
        span = tree.span(k)
        up = np.repeat(deepest[tree.span(k - 1)], 2**tree.n)
        deepest[span] = np.where(stop[span], span, up)
    astray = cubes[deepest[cubes] != owners]
    return float(np.sum(weight[astray]) / np.sum(weight[tree.box(top)]))


# Concrete criteria ---------------------------------------------------------------


def _norm_criterion(name, field, product, threshold, strict):
    """Criterion firing when the operator norm of ``product(avg, inv, s, r)``
    passes ``threshold`` (``>`` if ``strict``, else ``>=``), with ``avg`` the
    stack of W averages and ``inv`` its inverses, built once per field for
    every such criterion."""
    avg, inv = field.average_stack("w"), field.average_inverses()
    return StoppingCriterion(
        name, lambda tree, s, r: norm_exceeds(product(avg, inv, s, r), threshold, strict)
    )


def norm_exceeds(a, t, strict):
    """Per matrix of the stack ``a``: is ``|A|_2 > t`` (``strict``) or
    ``|A|_2 >= t``, decided as the top singular value of ``svd`` decides it.

    ``f / sqrt(N) <= |A|_2 <= f`` for ``f = |A|_F``. A row with ``f`` below
    ``t (1 - 1e-12)`` does not fire and one with ``f / sqrt(N)`` above
    ``t (1 + 1e-12)`` fires: that margin is far wider than the few ulps by
    which the computed ``f`` and the SVD's top value can stray from the exact
    norms, so neither side can flip a decision. Only the rows in between reach
    the SVD.
    """
    f = np.sqrt(np.einsum("rij,rij->r", a, a))
    out = f > t * (1.0 + 1e-12) * math.sqrt(a.shape[-1])
    open_ = np.flatnonzero(~out & (f >= t * (1.0 - 1e-12)))
    if open_.size:
        top = np.linalg.svd(a[open_], compute_uv=False)[:, 0]
        out[open_] = top > t if strict else top >= t
    return out


def volberg_criterion(field, lam):
    """Fires when |W_S W_R^{-1}| >= lam."""
    return _norm_criterion(
        f"volberg(lam={lam:g})", field, lambda avg, inv, s, r: avg[s] @ inv[r], lam, False
    )


def volberg_stop(root, field, lam):
    """Oscillation stop |W_S W_R^{-1}| >= lam; reports first-generation mass."""
    if not lam > 1.0:
        raise ValueError("lam must exceed 1")
    res = run_stopping(root, volberg_criterion(field, lam), field.grid.tree)
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
    avg = field.average_stack("w")

    def fires_many(tree, s, r):
        w_s, w_r = avg[s], avg[r]
        return kato_fires(w_s, w_r, expectation(w_s, w_r, r), v0, eps2)

    return StoppingCriterion(f"kato(eps2={eps2:g})", fires_many)


def kato_family_stop(root, field, family, v0, eps2):
    """Test-function stop with the function re-anchored at each recursion root."""
    v0 = np.asarray(v0, dtype=float)
    crit = kato_criterion(field, v0, eps2, lambda w_s, w_r, r: family.expectations(w_s, w_r, v0))
    res = run_stopping(root, crit, field.grid.tree)
    return res, first_generation_ratio(res, field.grid)


def corona_criterion(field, eps3):
    """Fires when |W_S^{-1} W_R - I| > eps3."""
    eye = np.eye(field.N)
    return _norm_criterion(
        f"corona(eps3={eps3:g})", field, lambda avg, inv, s, r: inv[s] @ avg[r] - eye, eps3, True
    )


def corona_stop(root, field, eps3):
    """Average-oscillation stop |W_S^{-1} W_R - I| > eps3; full packing reported.

    Every cube of a sawtooth other than its top was tested against the top and
    did not fire, so inside every sawtooth the oscillation stays within eps3.
    """
    if not eps3 > 0.0:
        raise ValueError("eps3 must be positive")
    res = run_stopping(root, corona_criterion(field, eps3), field.grid.tree)
    return res, packing_constant(res, field.grid)


def loewner_geq(a, b, tol=0.0):
    """True iff ``A - B`` has smallest eigenvalue >= ``-tol``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return bool(np.linalg.eigvalsh((d + d.T) / 2.0)[0] >= -tol)


def martingale_square_check(field, result, rel_tol=1e-9):
    """Stopped martingale square bound: sum (W_R - W_{R*})^2 mu(R) against
    ((W^2)_Q - (W_Q)^2) mu(Q) in the positive-semidefinite order, with Q the
    root of ``result``."""
    avg, mu = field.average_stack("w"), field.grid.mu_stack
    r, p = result.stops[1:], result.parents[1:]
    diff = avg[r] - avg[p]
    lhs = np.einsum("rij,rjk,r->ik", diff, diff, mu[r])
    avg_w = avg[result.root]
    # The one row of (W^2)_Q, divided as Grid.mu_averages divides the whole tree.
    avg_w2 = field.integral_stack("w2")[result.root] / mu[result.root]
    rhs = (avg_w2 - avg_w @ avg_w) * mu[result.root]
    scale = float(np.max(np.abs(np.linalg.eigvalsh((rhs + rhs.T) / 2.0))))
    ok = loewner_geq(rhs, lhs, rel_tol * max(scale, 1e-300))
    return lhs, rhs, ok
