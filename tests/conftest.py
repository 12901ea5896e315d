import itertools
import math
import zlib

import numpy as np
import pytest

from dwlab.cones import required_alignment
from dwlab.grid import MOMENTS, BoxBatch, Cube, CubeTree, Grid, WeightField
from dwlab.stopping import (
    AnchorOwners,
    StoppingCriterion,
    anchor_owners,
    chain_owners,
    first_generation_ratio,
    kato_criterion,
    partition_residual,
    run_stopping,
)
from dwlab import weights
from dwlab.weights import family_scan

# one line per acceptance criterion, echoed after the run summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_spd_cells(rng, count, dim, spread=0.5):
    """Stack of SPD matrices exp(G) with G symmetric Gaussian."""
    g = rng.standard_normal((count, dim, dim)) * spread
    g = (g + g.transpose(0, 2, 1)) / 2.0
    w, v = np.linalg.eigh(g)
    return np.einsum("cij,cj,ckj->cik", v, np.exp(w), v)


def random_weight_field(rng, n=1, N=2, L=3, spread=0.5, mu_spread=0.0):
    """Weight field built directly (independently of the generator module)."""
    side = 2**L
    cells = side**n
    values = random_spd_cells(rng, cells, N, spread).reshape((side,) * n + (N, N))
    if mu_spread > 0.0:
        mu = np.exp(rng.standard_normal((side,) * n) * mu_spread)
    else:
        mu = None
    return WeightField(Grid(n, L, mu), values)


def oracle_grid_key(n, L):
    """The C-order position (level, then the C order of its coords) of every
    ``CubeTree`` index, built by listing each cube's children in
    ``Cube.children()`` order."""
    steps = np.array(list(itertools.product((0, 1), repeat=n))).T
    starts = [(2 ** (n * k) - 1) // (2**n - 1) for k in range(L + 1)]
    coords, key = np.zeros((n, 1), dtype=np.int64), []
    for k in range(L + 1):
        if k:
            coords = (2 * coords[:, :, None] + steps[:, None, :]).reshape(n, -1)
        key.append(starts[k] + np.ravel_multi_index(tuple(coords), (2**k,) * n))
    return np.concatenate(key)


def oracle_levels(grid, stack):
    """Per-level views of a flat C-order stack of dyadic cubes, each with
    leading axes ``(2**k,) * n``."""
    s = [(2 ** (grid.n * k) - 1) // (2**grid.n - 1) for k in range(grid.L + 2)]
    return [stack[s[k] : s[k + 1]].reshape((2**k,) * grid.n + stack.shape[1:]) for k in range(grid.L + 1)]


def oracle_integrals(grid, cell_values):
    """The oracle of ``Grid.integrals``: the integrals over every dyadic cube
    as one flat stack, levels coarsest first and each level in C order.  Each
    level sums the 2x...x2 sibling blocks of the level below in one reduction
    over its first ``n`` axes, written in place."""
    n = grid.n
    tail = cell_values.shape[n:]
    out = np.empty((sum(2 ** (n * k) for k in range(grid.L + 1)),) + tail)
    levels = oracle_levels(grid, out)
    np.multiply(cell_values, grid.mu.reshape(grid.mu.shape + (1,) * len(tail)), out=levels[-1])
    levels[-1] *= grid.cell_volume
    siblings = tuple(range(1, 2 * n, 2))
    for k in range(grid.L, 0, -1):
        blocks = levels[k].reshape((2 ** (k - 1), 2) * n + tail)
        np.add.reduce(blocks, axis=siblings, out=levels[k - 1])
    return out


def oracle_box_mass_tree(grid, stack):
    """The oracle of ``tb._box_mass_tree`` on a flat C-order stack, in place:
    each level adds the 2x...x2 sibling-block sums of the level below, from
    the finest up."""
    levels = oracle_levels(grid, stack)
    siblings = tuple(range(1, 2 * grid.n, 2))
    for k in range(grid.L - 1, -1, -1):
        blocks = levels[k + 1].reshape((2**k, 2) * grid.n + levels[k].shape[grid.n :])
        levels[k] += blocks.sum(axis=siblings)


def oracle_stack(grid, cells):
    """The mu-averages of a cell array over every dyadic cube in tree order:
    its oracle integrals over the grid's oracle mu integrals, put in tree
    order by the oracle's grid key."""
    sums, mu = oracle_integrals(grid, cells), oracle_integrals(grid, np.ones(grid.mu.shape))
    avg = sums / mu.reshape(mu.shape + (1,) * (cells.ndim - grid.n))
    return avg[oracle_grid_key(grid.n, grid.L)]


def oracle_averages(field, moment):
    """The flat tree-order stack of the mu-averages of one moment, from its own tree."""
    if moment == "logdet":
        cells = field.cell_log_det()
    else:
        cells = field.cell_power({"w": 1, "w2": 2, "winv": -1, "winv2": -2}[moment])
    return oracle_stack(field.grid, cells)


# The ratios only tests read, and the moments each reads past mu: the
# five-term determinant chain, and the relative gap in
# thewest = (b2_iv * ainf_ii)^2.
TEST_READS = {"chain": MOMENTS, "identity_residual": ("w", "w2", "logdet")}
TEST_KEYS = weights.RATIO_KEYS + tuple(TEST_READS)


def full_kernel(avg, keys, directions=None):
    """``weights.ratio_kernel`` (looked up at every call) with the keys of
    ``TEST_READS``.  ``chain`` is (det(W^2)^{1/2}, det W, exp(avg log det W),
    det(W^-1)^{-1}, det(W^-2)^{-1/2}), its four determinants from one LU call
    over the concatenated stacks.  ``identity_residual`` is
    ``|thewest - (b2_iv * ainf_ii)^2| / max(thewest, 1)``; asking for it also
    returns the three ratios it reads."""
    keys = set(keys)
    lib = keys - set(TEST_READS)
    if "identity_residual" in keys:
        lib |= {"b2_iv", "ainf_ii", "thewest"}
    out = weights.ratio_kernel(avg, lib, directions)
    if "identity_residual" in keys:
        combined = (out["b2_iv"] * out["ainf_ii"]) ** 2
        out["identity_residual"] = np.abs(out["thewest"] - combined) / np.maximum(out["thewest"], 1.0)
    if "chain" in keys:
        det = np.linalg.det(np.concatenate([avg[m] for m in ("w", "w2", "winv", "winv2")]))
        det_w, det_w2, det_winv, det_winv2 = det.reshape(4, -1)
        exp_logdet = np.exp(avg["logdet"])
        out["chain"] = (np.sqrt(det_w2), det_w, exp_logdet, 1.0 / det_winv, 1.0 / np.sqrt(det_winv2))
    return out


def dyadic_ratios(field):
    """``full_kernel`` over every dyadic cube, in tree order, from the field's
    flat average stacks: the tree source."""
    return full_kernel(dict(zip(MOMENTS, field.average_stacks(MOMENTS))), TEST_KEYS)


def cube_average(field, cube, moment="w"):
    """The mu-average of ``moment`` over ``cube``, read from the field's stack."""
    return field.average_stacks((moment,))[0][field.grid.tree.index(cube)]


def cube_ratios(field, cube):
    """``full_kernel`` of one dyadic cube, from the field's average stacks, as floats."""
    avg = {m: cube_average(field, cube, m)[None] for m in MOMENTS}
    r = full_kernel(avg, TEST_KEYS)
    return {k: tuple(float(x[0]) for x in v) if k == "chain" else float(v[0]) for k, v in r.items()}


def det_chain_check(field, cube, rel_tol=1e-9):
    """The five-term determinant chain for one cube, asserted monotone.

    Returns (det(avg W^2)^{1/2}, det(avg W), exp(avg ln det W),
    det(avg W^{-1})^{-1}, det(avg W^{-2})^{-1/2}), which must be nonincreasing.
    """
    chain = cube_ratios(field, cube)["chain"]
    for a, b in zip(chain, chain[1:]):
        if a < b - rel_tol * max(abs(a), abs(b), 1.0):
            raise AssertionError(f"determinant chain out of order: {chain}")
    return chain


def b2_constants(field, shifts=None, directions=64, seed=0):
    """The four reverse Hoelder sups (b2_i, b2_ii, b2_iii, b2_iv) of one family scan."""
    keys = ("b2_i", "b2_ii", "b2_iii", "b2_iv")
    sups = family_scan(field, keys, shifts, directions, seed).sups
    return tuple(sups[k] for k in keys)


def _oracle_screen_cells(sym):
    """The cells of W, W^2 and log det W of the field exp(sym), from one eigh."""
    w, v = np.linalg.eigh(sym)
    exp_w = np.exp(w)
    return {
        "w": np.einsum("...ij,...j,...kj->...ik", v, exp_w, v),
        "w2": np.einsum("...ij,...j,...kj->...ik", v, exp_w * exp_w, v),
        "logdet": np.sum(w, axis=-1),
    }


def _oracle_screen_pair(avg):
    """(b2_iv, ainf_ii) sups of flat average stacks, both floored at 1, with
    one LU determinant call per moment."""
    det_w, det_w2 = np.linalg.det(avg["w"]), np.linalg.det(avg["w2"])
    b2, ainf = np.sqrt(det_w2) / det_w, det_w / np.exp(avg["logdet"])
    return max(1.0, float(b2.max())), max(1.0, float(ainf.max()))


def oracle_sym_screen(grid, sym):
    """The inclusion screen's (b2_iv, ainf_ii) of the field exp(sym), both
    floored at 1: the cells W, W^2 (row-major) and log det W as the channels
    of one cell array, summed in one tree."""
    cells = _oracle_screen_cells(sym)
    lead, N = sym.shape[:-2], sym.shape[-1]
    flat = oracle_stack(
        grid,
        np.concatenate(
            [cells["w"].reshape(lead + (-1,)), cells["w2"].reshape(lead + (-1,)), cells["logdet"][..., None]],
            axis=-1,
        ),
    )
    avg = {
        "w": flat[:, : N * N].reshape(-1, N, N),
        "w2": flat[:, N * N : 2 * N * N].reshape(-1, N, N),
        "logdet": flat[:, -1],
    }
    return _oracle_screen_pair(avg)


def per_moment_sym_screen(grid, sym):
    """The screen pair with each of W, W^2 and log det W summed in its own
    tree.  At n = 1 a tree sums two siblings, whose order no channel beside
    them can change, so there it equals ``oracle_sym_screen`` to the bit."""
    return _oracle_screen_pair({m: oracle_stack(grid, c) for m, c in _oracle_screen_cells(sym).items()})


def loop_propose(sym, rng, temp):
    """The anneal's candidate drawn one touched cell at a time: a symmetric
    Gaussian bump of scale 0.3 temp added to each of cells // 8 cells."""
    N = sym.shape[-1]
    cand = sym.copy()
    flat = cand.reshape(-1, N, N)
    touched = rng.integers(0, len(flat), size=max(1, len(flat) // 8))
    for c in touched:
        bump = rng.normal(0.0, 0.3 * temp, size=(N, N))
        flat[c] += (bump + bump.T) / 2.0
    return cand


def oracle_inverse_norms(directions, inv_w):
    """|W^{-1/2} d| for the rows d of ``directions`` and each matrix of the stack
    ``inv_w`` (the W^{-1}), in the (B, D, N) form summed over its last axis."""
    return np.sqrt(np.sum((directions @ inv_w) * directions, -1))


def oracle_log_norm_masses(field, directions):
    """``WeightField.log_norm_masses`` as one product over the whole grid per
    eigen-component, with the transposed ``directions`` as its right operand."""
    sq = np.zeros(field.values.shape[:-2] + (len(directions),))
    for i in range(field.N):
        proj = field.cell_eigvecs[..., i] @ directions.T
        sq += proj * proj / field.cell_eigvals[..., i, None]
    return np.log(sq) * (0.5 * field.grid.cell_masses[..., None])


def oracle_b2_sampled(avg, directions):
    """Per row: max over the rows d of ``directions`` of |S d| / |W_Q d|, with S
    the eigh square root of (W^2)_Q and each norm taken of a (B, D, N) product."""
    ew2, vv2 = np.linalg.eigh(avg["w2"])
    root = (vv2 * np.sqrt(ew2)[:, None, :]) @ vv2.transpose(0, 2, 1)
    num = np.linalg.norm(directions @ root.transpose(0, 2, 1), axis=-1)
    den = np.linalg.norm(directions @ avg["w"].transpose(0, 2, 1), axis=-1)
    return np.max(num / den, axis=-1)


def oracle_b2_quadratic(avg, directions):
    """Per cube, one cube and one direction at a time: the max over the rows d
    of ``directions`` of (d^T (W^2)_Q d)^{1/2} / |W_Q d|, and the condition of
    the quadratic forms it reads, the largest |d|^T |M| |d| / d^T M d of
    M = (W^2)_Q and W_Q^T W_Q (1 when no term of a form cancels another)."""
    values, conds = [], []
    for w, w2 in zip(avg["w"], avg["w2"]):
        values.append(max(math.sqrt((d @ w2 @ d) / ((w @ d) @ (w @ d))) for d in directions))
        conds.append(max(abs(d) @ abs(m) @ abs(d) / (d @ m @ d) for m in (w2, w.T @ w) for d in directions))
    return np.array(values), np.array(conds)


def svd_b2(avg):
    """The oracle of b2_i = b2_ii: per row, the top singular value of
    (W^2)_Q^{1/2} W_Q^{-1} from ``svd``, the root and the inverse from ``eigh``."""
    ew, vv = np.linalg.eigh(avg["w"])
    inv_w = (vv / ew[:, None, :]) @ vv.transpose(0, 2, 1)
    ew2, vv2 = np.linalg.eigh(avg["w2"])
    root = (vv2 * np.sqrt(ew2)[:, None, :]) @ vv2.transpose(0, 2, 1)
    return np.linalg.svd(root @ inv_w, compute_uv=False)[:, 0]


def oracle_bounds(grid, batch, doubled=False):
    """The per-axis intervals [lo, hi) in lattice steps (36 to a finest cell)
    of the boxes of a ``BoxBatch``, or of their doubles 2Q: each side moved
    out by half the box side and clipped to the unit cube."""
    units = 36 * grid.side
    h = units >> batch.level
    first, stop = batch.rows
    offsets = [v * units // 9 for v in grid.shift_vectors(batch.shift)[-1]]
    lo = [o + h * np.arange((units - o) // h) for o in offsets]
    lo[0] = lo[0][first:stop]
    hi = [a + h for a in lo]
    if doubled:
        lo, hi = [np.maximum(a - h // 2, 0) for a in lo], [np.minimum(b + h // 2, units) for b in hi]
    return lo, hi


def oracle_band_width(grid, lo, hi):
    """Cells in the band of intervals [lo, hi) along one axis."""
    return int(min(grid.side, np.max(-(-hi // 36) - lo // 36)))


def oracle_band_cells(grid, batch, doubled=False):
    """Cells each box of the family of ``batch``, or its double, reads."""
    lo, hi = oracle_bounds(grid, BoxBatch(batch.family, (0, batch.family.counts[0])), doubled)
    return math.prod(oracle_band_width(grid, a, b) for a, b in zip(lo, hi))


def oracle_box_cells(grid, lo, hi):
    """The per-box gather of the boxes with per-axis intervals [lo, hi).

    Along one axis an interval overlaps at most ``ceil((hi - lo) / 36) + 1``
    consecutive cells, so per axis a start index and a ``(count, m)`` band of
    the exact overlaps in lattice steps cover the boxes, ``m`` the widest band.
    Returns an index tuple that gathers a cell array into shape ``(count_0,
    ..., count_{n-1}, m_0, ..., m_{n-1}) + tail``, and the bands."""
    n, side = grid.n, grid.side
    index, bands = [], []
    for axis, (a, b) in enumerate(zip(lo, hi)):
        m = oracle_band_width(grid, a, b)
        j = np.clip(a // 36, 0, side - m)[:, None] + np.arange(m)
        band = np.minimum(b[:, None], (j + 1) * 36) - np.maximum(a[:, None], j * 36)
        shape = [1] * (2 * n)
        shape[axis], shape[n + axis] = j.shape
        index.append(j.reshape(shape))
        bands.append(np.maximum(band, 0).astype(float))
    return tuple(index), tuple(bands)


def plan_rows(plan):
    """Each axis's start cell and band of every box, ``(starts, bands)`` with
    one row per box, from the pieces of a ``_Family.plan``; every box lies in
    exactly one piece."""
    out = []
    for count, m, pieces in plan:
        starts, bands, seen = np.zeros(count, int), np.zeros((count, m)), np.zeros(count, int)
        for rows, boxes, start, step, band in pieces:
            assert band.dtype == float and band.shape == (m,) and boxes == len(range(count)[rows])
            starts[rows] = start + step * np.arange(boxes)
            bands[rows] = band
            seen[rows] += 1
        assert np.all(seen == 1)
        out.append((starts, bands))
    return out


def oracle_box_integrals(masses, bands):
    """Integrals over each box of a block of cell masses gathered as
    ``oracle_box_cells`` gathers them: each band axis is contracted in turn
    against its band, giving shape ``(boxes,) + tail``."""
    n = len(bands)
    for axis, band in enumerate(bands):
        sub = list(range(masses.ndim))
        masses = np.einsum(masses, sub, band, [axis, n], sub[:n] + sub[n + 1 :])
    return masses.reshape((-1,) + masses.shape[n:])


def oracle_box_sums(grid, cells, batch, doubled=False):
    """``Grid.box_sums`` from the per-box gather of ``oracle_box_cells``."""
    index, bands = oracle_box_cells(grid, *oracle_bounds(grid, batch, doubled))
    return oracle_box_integrals(cells[index], bands)


def oracle_box_averages(field, batch, moments, directions=None):
    """``weights.box_averages`` from the per-box gathers."""
    N, g = field.N, field.grid
    sums = oracle_box_sums(g, field.moment_masses(moments), batch)
    mu_q = sums[:, 0]
    avg, at = {}, 1
    for m in moments:
        width = 1 if m == "logdet" else N * N
        part = sums[:, at : at + width] / mu_q[:, None]
        avg[m] = part[:, 0] if m == "logdet" else part.reshape(-1, N, N)
        at += width
    if directions is not None:
        avg["lognorm"] = oracle_box_sums(g, field.log_norm_masses(directions), batch) / mu_q[:, None]
    return avg


def oracle_family_scan(field, keys, shifts, directions=64, seed=0):
    """The family scan with one kernel call per gather batch and the per-box
    gathers, unmemoised: ``(sups, worst, count)``.  The batches and the sup and
    self-check rules are ``weights.family_scan``'s; the kernel is
    ``full_kernel``, so ``keys`` may name ``TEST_READS``."""
    g = field.grid
    keys = frozenset(keys)
    reads = {**weights._READS, **TEST_READS}
    ratios = [k for k in TEST_KEYS if k in keys]
    sampled = not weights._SAMPLED.isdisjoint(ratios)
    dirs = weights._directions(field.N, directions, seed) if sampled else None
    moments = sorted({m for k in ratios for m in reads[k]}, key=MOMENTS.index)
    moment_width = 1 + sum(1 if m == "logdet" else field.N**2 for m in moments) if ratios else 0
    D = len(dirs) if sampled else 0
    log_width = D if "ainf_i" in ratios else 0
    doubling = "doubling" in keys
    levels = range(g.L + 2 if doubling else g.L + 1)

    def box_floats(k, cells, doubled):
        held = max(cells, doubled) if doubling else 1
        if k > g.L:
            return held
        return max(held, moment_width * cells, log_width * cells) + weights._STACKS * D * field.N

    sups, argmax, count = {}, {}, 0
    for batch in g.box_batches(shifts, levels, box_floats):
        if doubling:
            mass, mass2 = (oracle_box_sums(g, g.cell_masses, batch, doubled) for doubled in (False, True))
            sups["doubling"] = max(sups.get("doubling", 0.0), float(np.max(mass2 / mass)))
        if batch.level > g.L:
            continue
        count += len(batch)
        if not ratios:
            continue
        avg = oracle_box_averages(field, batch, moments, dirs if "ainf_i" in ratios else None)
        r = full_kernel(avg, ratios, dirs)
        for key, bound, what in (
            ("b2_sampled", "b2_ii", "sampled direction ratio exceeded the operator norm"),
            ("ainf_i", "ainf_i_jensen", "ainf_i exceeded its Jensen bound"),
        ):
            if key not in r:
                continue
            over = r[key] > r[bound] * (1.0 + 1e-9)
            if over.any():
                raise AssertionError(f"{what} on {batch.descriptor(int(np.argmax(over)))}")
        for key in ratios:
            i = int(np.argmax(r[key]))
            val = float(r[key][i])
            if key not in sups or val > sups[key]:
                sups[key] = val
                argmax[key] = (batch, i)
    return sups, {key: batch.descriptor(i) for key, (batch, i) in argmax.items()}, count


def weighted_avg(f, cube, weight):
    """Matrix weighted average: (int_Q W dmu)^{-1} int_Q W f dmu, summed from
    the cells of ``cube``."""
    g = weight.grid
    slices = cube.cell_slices(g.L)
    f = np.asarray(f, dtype=float)
    mu = g.mu[slices]
    w_block = weight.values[slices]
    f_block = f[slices]
    axes = tuple(range(g.n))
    iw = np.sum(
        w_block * mu.reshape(mu.shape + (1, 1)) * g.cell_volume, axis=axes
    )
    iwf = np.sum(
        np.einsum("...ij,...j->...i", w_block, f_block)
        * mu.reshape(mu.shape + (1,))
        * g.cell_volume,
        axis=axes,
    )
    return np.linalg.solve(iw, iwf)


def expectation_stack(field, f):
    """Weighted averages E_R f = (int_R W dmu)^{-1} int_R W f dmu of a vector
    field ``f`` over every dyadic cube R, one row per cube in tree order: one
    batched solve against the field's flat stack of cube integrals of W."""
    iwf = field.grid.integrals(np.einsum("...ij,...j->...i", field.values, np.asarray(f, float)))
    return np.linalg.solve(field.integral_stack("w"), iwf[..., None])[..., 0]


def expectation_Et(f, t_level, weight):
    """Field version of the weighted average: constant on each level-t cube."""
    g = weight.grid
    if t_level < 0 or t_level > g.L:
        raise ValueError(f"level {t_level} outside [0, {g.L}]")
    stack = expectation_stack(weight, f)
    out = np.empty(g.mu.shape + stack.shape[1:])
    for cube in grid_cubes(g, [t_level]):
        out[cube.cell_slices(g.L)] = stack[g.tree.index(cube)]
    return out


def kato_stop(root, field, b_values, v0, eps2):
    """Test-function stop for one fixed function given on the root cube.

    Fires when |E_R b| > 1/eps2 or (v0, W_S^{-1} W_R E_R b) < eps2, with S the
    current recursion root.  Returns the result and first-generation mass.
    """
    stack = expectation_stack(field, b_values)
    crit = kato_criterion(field, v0, eps2, lambda w_s, w_r, r: stack[r])
    res = run_stopping(root, crit, field.grid.tree)
    return res, first_generation_ratio(res, field.grid)


def grid_cubes(grid, levels=None):
    """Every dyadic cube of ``grid`` at ``levels`` (default 0..L), level by
    level, each level in C order of its coords."""
    for k in range(grid.L + 1) if levels is None else levels:
        for coords in itertools.product(range(2**k), repeat=grid.n):
            yield Cube(k, coords)


def cube_measure(grid, cube):
    """mu(cube), read from the grid's dyadic mass stack."""
    return float(grid.mu_stack[grid.tree.index(cube)])


def cube_parent(cube):
    if cube.level == 0:
        raise ValueError("root cube has no parent")
    return Cube(cube.level - 1, tuple(c // 2 for c in cube.coords))


def cube_contains(outer, inner):
    if inner.level < outer.level:
        return False
    shift = inner.level - outer.level
    return all(ic >> shift == c for ic, c in zip(inner.coords, outer.coords))


def svd_norms_sq(gamma):
    """The oracle of ``CarlesonField.norms_sq``: the squared top singular
    value of every multiplier from ``svd``, one row per cube."""
    return np.linalg.svd(gamma.stack, compute_uv=False)[..., 0] ** 2


def svd_top_directions(gammas):
    """The oracle of ``tb.top_directions``: the top right singular vector of
    every matrix of the stack ``gammas`` from a full ``svd``."""
    return np.linalg.svd(gammas)[2][:, 0, :]


def full_sup_form(fam, forms):
    """The oracle of ``CanonicalFamily._sup_form``: one batched ``eigvalsh``
    over every cube's symmetrised form, unscreened, and NaN when any form has
    a non-finite entry."""
    avg = fam.field.average_stacks(("w",))[0]
    m = avg @ forms @ avg
    m = (m + np.swapaxes(m, -1, -2)) / 2.0
    if not np.isfinite(m).all():
        return math.nan
    top = np.linalg.eigvalsh(m)[:, -1]
    return math.sqrt(max(0.0, float(np.max(top / fam.field.grid.mu_stack))))


def gamma_value(gamma, cube):
    """The multiplier matrix of ``gamma`` on ``cube``."""
    return gamma.stack[gamma.grid.tree.index(cube)]


def family_labels(grid, shifts):
    """The descriptor of every box of the translated family, in enumeration order."""
    return [b.descriptor(i) for b in grid.box_batches(shifts) for i in range(len(b))]


def doubling_of(grid, shifts=0):
    """The doubling constant of ``grid``'s measure, from a scan of a flat 1x1 field."""
    flat = WeightField(grid, np.ones(grid.mu.shape + (1, 1)))
    return family_scan(flat, ("doubling",), shifts).sups["doubling"]


def bernoulli_criterion(probability, seed):
    """Pure pseudo-random criterion: fires on a stable hash of (root, cand)."""

    def fires(s, r):
        tag = f"{seed}|{s.level}:{s.coords}|{r.level}:{r.coords}"
        return (zlib.crc32(tag.encode()) % 2**32) / 2.0**32 < probability

    def fires_many(tree, s, r):
        rows = (fires(tree.cube(a), tree.cube(b)) for a, b in zip(s, r))
        return np.fromiter(rows, dtype=bool, count=len(r))

    return StoppingCriterion(f"bernoulli(p={probability:g})", fires_many)


def _avg_criterion(name, field, rule):
    avg = field.average_stacks(("w",))[0]
    return StoppingCriterion(name, lambda tree, s, r: rule(avg[s], avg[r], r))


def oracle_volberg_criterion(field, lam):
    """The unscreened Volberg rule: one ``inv`` and one full ``svd`` per row."""

    def rule(w_s, w_r, r):
        return np.linalg.svd(w_s @ np.linalg.inv(w_r), compute_uv=False)[:, 0] >= lam

    return _avg_criterion(f"volberg(lam={lam:g})", field, rule)


def oracle_corona_criterion(field, eps3):
    """The unscreened corona rule: one ``inv`` and one full ``svd`` per row."""
    eye = np.eye(field.N)

    def rule(w_s, w_r, r):
        return np.linalg.svd(np.linalg.inv(w_s) @ w_r - eye, compute_uv=False)[:, 0] > eps3

    return _avg_criterion(f"corona(eps3={eps3:g})", field, rule)


NEVER = StoppingCriterion("never", lambda tree, s, r: np.zeros(len(r), dtype=bool))
ALWAYS = StoppingCriterion("always", lambda tree, s, r: np.ones(len(r), dtype=bool))


def first_generation(s, crit, L):
    """Reference selection over Cube objects: the maximal cubes strictly below
    ``s`` where ``crit`` fires against ``s``, in depth-first preorder."""
    tree = CubeTree(s.n, L)
    out = []
    stack = list(reversed(s.children())) if s.level < L else []
    while stack:
        cand = stack.pop()
        if crit.fires_many(tree, np.array([tree.index(s)]), np.array([tree.index(cand)]))[0]:
            out.append(cand)
        elif cand.level < L:
            stack.extend(reversed(cand.children()))
    return out


def cube_walk(root, crit, L):
    """Reference stopping decomposition: the generations as lists of Cubes,
    each the first generations of the previous one's cubes in order, and the
    parent stop of every stop below ``root``."""
    generations, parent = [[root]], {}
    while True:
        nxt = []
        for s in generations[-1]:
            for r in first_generation(s, crit, L):
                parent[r] = s
                nxt.append(r)
        if not nxt:
            return generations, parent
        generations.append(nxt)


def chain_residual(tree, first, second, weight):
    """Worst independent check of the two-criterion chain under the root cube:
    S1 from the owner propagation against the stops of ``first``, and in each
    sawtooth of S1, S2 from ``chain_owners`` against the stops of ``second``
    restarted at S1."""
    every = np.arange(tree.size)
    s1 = np.concatenate(anchor_owners(tree, first, 0, 0).levels(0))
    s2 = chain_owners(tree, s1, every, lambda s, a, rows: second.fires_many(tree, s, a))
    worst = partition_residual(tree, first, 0, every, s1, weight)
    for s in np.unique(s1):
        held = every[s1 == s]
        worst = max(worst, partition_residual(tree, second, s, held, s2[held], weight))
    return worst


def owner_levels(tree, crit, anchors):
    """The per-anchor owner walk, the oracle of ``anchor_owners``: the owner,
    under the anchor above it, of every cube in the boxes of ``anchors`` (all
    at one level), one index array per level down to ``L``.  A cube keeps its
    parent's owner unless ``crit`` fires at it against that owner, and then
    owns itself; every row is decided, whether or not another anchor's
    walk decided the same pair."""
    cubes = np.asarray(anchors)
    own = [cubes]
    for _ in range(tree.level[cubes[0]], tree.L):
        cubes, par = tree.children(cubes), np.repeat(own[-1], 2**tree.n)
        own.append(np.where(crit.fires_many(tree, par, cubes), cubes, par))
    return own


def anchor_loop(tree, crit, top, deepest):
    """``owner_levels`` once per anchor level of the box of ``top``: for each
    level j from ``top``'s down to ``deepest``, the owners of the box's cubes
    from level j down under their level-j anchors, as one array."""
    box = tree.box(top)
    return [
        np.concatenate(owner_levels(tree, crit, box[tree.level[box] == j]))
        for j in range(int(tree.level[top]), deepest + 1)
    ]


def coarse_anchor_owners(tree, crit, top, deepest):
    """A wrong owner propagation: each owner is gathered one level too coarse,
    so a cube takes its grandparent's owner and the children of a stop never
    land in its sawtooth.  Its pairs are the distinct (owner, parent's owner,
    cube) states of a level, each cube's own state ``(cube, cube, cube)``
    first, for every anchor whatever ``deepest``."""
    slots = 2**tree.n
    cubes = np.array([top])
    owner, above, column, step = [cubes], [cubes], [np.zeros(1, dtype=np.intp)], []
    for _ in range(tree.level[top], tree.L):
        cubes = tree.children(cubes)
        col = (column[-1][:, None] * slots + np.arange(slots)).reshape(-1)
        par = np.repeat(above[-1], slots)
        own = np.where(crit.fires_many(tree, par, cubes[col]), cubes[col], par)
        states = np.stack([own, np.repeat(owner[-1], slots), col], axis=1)
        distinct, state = np.unique(states, axis=0, return_inverse=True)
        step.append((len(cubes) + state.reshape(-1)).reshape(-1, slots))
        owner.append(np.concatenate([cubes, distinct[:, 0]]))
        above.append(np.concatenate([cubes, distinct[:, 1]]))
        column.append(np.concatenate([np.arange(len(cubes)), distinct[:, 2]]))
    return AnchorOwners(tree, top, owner, column, step)


def oracle_circle_net(eps1):
    """Reference circle net of N=2: ``ceil(2 pi / theta)`` equally spaced
    points, and the lookup by rounded angle."""
    theta = math.acos(required_alignment(eps1))
    count = int(math.ceil(2.0 * math.pi / theta))
    ang = np.arange(count) * (2.0 * math.pi / count)
    vectors = np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def lookup(v1s):
        ang = np.arctan2(v1s[:, 1], v1s[:, 0]) % (2.0 * math.pi)
        return np.rint(ang / (2.0 * math.pi / count)).astype(int) % count

    return vectors, lookup


def oracle_ring_net(eps1):
    """Reference latitude-ring net of N=3, materialized ring by ring, and its
    lookup: the nearest point of the ring below, at and above the probe's
    polar angle, best by inner product."""
    theta = math.acos(required_alignment(eps1))
    step = theta * 1.2
    n_rings = int(math.ceil(math.pi / step))
    polar_step = math.pi / n_rings
    blocks, counts = [], []
    for r in range(n_rings):
        phi = (r + 0.5) * polar_step
        m = max(1, int(math.ceil(2.0 * math.pi * math.sin(phi) / polar_step)))
        counts.append(m)
        psi = np.arange(m) * (2.0 * math.pi / m)
        blocks.append(
            np.stack(
                [
                    math.sin(phi) * np.cos(psi),
                    math.sin(phi) * np.sin(psi),
                    np.full(m, math.cos(phi)),
                ],
                axis=1,
            )
        )
    vectors = np.concatenate(blocks)
    counts = np.array(counts, dtype=int)
    offsets = np.cumsum(counts) - counts

    def lookup(v1s):
        phi = np.arccos(np.clip(v1s[:, 2], -1.0, 1.0))
        psi = np.arctan2(v1s[:, 1], v1s[:, 0]) % (2.0 * math.pi)
        base = np.clip((phi / polar_step).astype(int), 0, n_rings - 1)
        best = np.zeros(v1s.shape[0], dtype=int)
        best_dot = np.full(v1s.shape[0], -2.0)
        for dr in (-1, 0, 1):
            ring = np.clip(base + dr, 0, n_rings - 1)
            m = counts[ring]
            idx = offsets[ring] + (np.rint(psi / (2.0 * math.pi) * m).astype(int) % m)
            dots = np.einsum("ij,ij->i", v1s, vectors[idx])
            better = dots > best_dot
            best[better] = idx[better]
            best_dot[better] = dots[better]
        return best

    return vectors, lookup


def unit_rows(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
