import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import grid
from dwlab.grid import (
    MOMENTS,
    BoxBatch,
    Cube,
    CubeTree,
    FieldFormatError,
    Grid,
    WeightField,
    read_weight_field,
    root_cube,
    write_weight_field,
)
from conftest import (
    b2_constants,
    cube_contains,
    cube_average,
    cube_measure,
    cube_parent,
    doubling_of,
    expectation_Et,
    expectation_stack,
    family_labels,
    grid_cubes,
    oracle_averages,
    oracle_band_width,
    oracle_band_widths,
    oracle_bounds,
    oracle_box_cells,
    oracle_box_integrals,
    oracle_box_mass_tree,
    oracle_box_sums,
    oracle_grid_key,
    oracle_integrals,
    plan_rows,
    random_weight_field,
    weighted_avg,
)
from dwlab.tb import _box_mass_tree
from dwlab.weights import CLASS_KEYS, family_scan


def test_measure_examples():
    assert cube_measure(Grid(1, 0), root_cube(1)) == 1.0
    assert cube_measure(Grid(1, 1), Cube(1, (0,))) == 0.5
    # density 2 on [0,1/2), 1 on [1/2,1): single-cell sum 2 * 1/2 = 1
    assert cube_measure(Grid(1, 1, [2.0, 1.0]), Cube(1, (0,))) == 1.0


def test_avg_matrix_examples():
    g = Grid(1, 1)
    w = WeightField(g, np.array([np.diag([1.0, 1.0]), np.diag([3.0, 1.0])]))
    assert np.allclose(cube_average(w, root_cube(1)), np.diag([2.0, 1.0]))
    # single finest cell returns the cell value
    assert np.allclose(cube_average(w, Cube(1, (1,))), np.diag([3.0, 1.0]))
    const = WeightField(Grid(1, 2), np.broadcast_to(np.diag([2.0, 5.0]), (4, 2, 2)).copy())
    assert np.allclose(cube_average(const, root_cube(1)), np.diag([2.0, 5.0]))


@pytest.mark.parametrize("n,L", [(1, 6), (2, 4), (3, 3)])
def test_cube_tree_bits_match_the_oracle_grid_key(n, L):
    # index and cube invert each other on every cube, and put it where the
    # oracle's grid key, built from Cube.children(), puts it; the C-order
    # sort key of any rows is that grid key.
    tree = CubeTree(n, L)
    key = oracle_grid_key(n, L)
    cubes = list(grid_cubes(Grid(n, L)))
    idx = np.array([tree.index(c) for c in cubes])
    assert np.array_equal(key[idx], np.arange(tree.size))
    assert all(tree.cube(i) == c for i, c in zip(idx, cubes))
    assert np.array_equal(tree.c_order(np.arange(tree.size)), key)
    rows = np.random.default_rng(n + L).permutation(tree.size)[: tree.size // 3]
    assert np.array_equal(tree.c_order(rows), key[rows])


@pytest.mark.parametrize("n,L", [(1, 7), (2, 4), (3, 3), (2, 0)])
def test_descriptors_match_each_cube(n, L):
    # One de-interleaving of an index array gives each cube's descriptor, in
    # the array's order, and cube(i) takes Python and numpy ints alike.
    tree = CubeTree(n, L)
    idx = np.random.default_rng(n).permutation(tree.size)
    cubes = [tree.cube(i) for i in idx.tolist()]
    assert all(tree.index(c) == i for i, c in zip(idx.tolist(), cubes))
    assert cubes == [tree.cube(i) for i in idx]
    assert tree.descriptors(idx) == [c.descriptor() for c in cubes]
    assert tree.descriptors(idx[:0]) == []


# Tails of the summed stacks: scalar channels (mu, log det W, the Carleson
# masses, a power at N = 1) and the multi-channel ones.
_TAILS = [(), (1,), (1, 1), (2,), (4,), (2, 2), (3, 3), (9,), (17,), (4, 4)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), depth=st.floats(0.0, 1.0))
def test_tree_sums_match_the_c_order_oracle(seed, n, depth):
    # Grid.integrals and the box-mass tree sum each run of 2**n siblings to
    # the bits of the C-order reductions of the oracle, for every tail.
    L = round(depth * {1: 8, 2: 5, 3: 3, 4: 2}[n])
    rng = np.random.default_rng(seed)
    g = Grid(n, L, np.exp(rng.normal(0.0, 1.5, (2**L,) * n)))
    key = oracle_grid_key(n, L)
    for tail in _TAILS:
        shape = (2**L,) * n + tail
        cells = rng.standard_normal(shape) * np.exp(rng.normal(0.0, 2.0, shape))
        sums = oracle_integrals(g, cells)
        assert np.array_equal(g.integrals(cells), sums[key]), tail
        masses = sums[key]
        _box_mass_tree(g, masses)
        oracle_box_mass_tree(g, sums)
        assert np.array_equal(masses, sums[key]), tail


@pytest.mark.parametrize("n,L", [(1, 5), (2, 3), (3, 2)])
def test_grid_tree_mu_is_the_gathered_mass_tree(n, L, rng):
    g = Grid(n, L, rng.uniform(0.3, 3.0, (2**L,) * n))
    mu = oracle_integrals(g, np.ones(g.mu.shape))
    assert np.array_equal(g.mu_stack, mu[oracle_grid_key(n, L)])
    assert np.array_equal(g.cell_masses, mu[-g.mu.size :].reshape(g.mu.shape))
    assert g.tree.offsets is g._starts
    # Every walk on the grid shares these arrays, so none can be written.
    for arr in (g.tree.offsets, g.tree.level, g.mu_stack, g.cell_masses):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_weighted_avg_hand_case():
    g = Grid(1, 1)
    w = WeightField(g, np.array([np.diag([1.0, 1.0]), np.diag([3.0, 1.0])]))
    f = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(weighted_avg(f, root_cube(1), w), [0.25, 0.0], atol=1e-14)


def test_weighted_avg_reproduces_constants(rng):
    w = random_weight_field(rng, n=1, N=2, L=3, mu_spread=0.4)
    c = np.array([0.7, -1.3])
    f = np.broadcast_to(c, (8, 2)).copy()
    for cube in grid_cubes(w.grid):
        assert np.allclose(weighted_avg(f, cube, w), c, atol=1e-12)


def test_weighted_avg_unweighted_reduces_to_mean(rng):
    g = Grid(1, 2, rng.uniform(0.5, 2.0, 4))
    w = WeightField(g, np.broadcast_to(np.eye(2), (4, 2, 2)).copy())
    f = rng.standard_normal((4, 2))
    top = root_cube(1)
    mu = g.mu * g.cell_volume
    expected = (f * mu[:, None]).sum(0) / mu.sum()
    assert np.allclose(weighted_avg(f, top, w), expected, atol=1e-14)


def test_expectation_levels():
    g = Grid(1, 1)
    w = WeightField(g, np.ones((2, 1, 1)))
    f = np.array([[1.0], [3.0]])
    assert np.allclose(expectation_Et(f, 0, w), 2.0)
    assert np.allclose(expectation_Et(f, 1, w), f)
    with pytest.raises(ValueError):
        expectation_Et(f, 2, w)


def test_expectation_projection_tower(rng):
    w = random_weight_field(rng, n=1, N=2, L=4, mu_spread=0.3)
    f = rng.standard_normal((16, 2))
    for t in range(5):
        et = expectation_Et(f, t, w)
        assert np.max(np.abs(expectation_Et(et, t, w) - et)) < 1e-12
        for s in range(t + 1):
            # coarser absorbs finer
            lhs = expectation_Et(et, s, w)
            rhs = expectation_Et(f, s, w)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_expectation_two_dimensional(rng):
    w = random_weight_field(rng, n=2, N=2, L=2, spread=0.6, mu_spread=0.3)
    f = rng.standard_normal((4, 4, 2))
    assert np.allclose(expectation_Et(f, 2, w), f, atol=1e-12)
    for t in (0, 1):
        et = expectation_Et(f, t, w)
        # constant on each level-t block, value = the block's weighted average
        for cube in grid_cubes(w.grid, [t]):
            sl = cube.cell_slices(2)
            block = et[sl].reshape(-1, 2)
            assert np.max(np.abs(block - block[0])) < 1e-14
            assert np.allclose(block[0], weighted_avg(f, cube, w), atol=1e-12)
        assert np.max(np.abs(expectation_Et(et, t, w) - et)) < 1e-12


def test_expectation_levels_match_weighted_avg(rng):
    w = random_weight_field(rng, n=2, N=3, L=2, spread=0.6, mu_spread=0.3)
    f = rng.standard_normal((4, 4, 3))
    stack = expectation_stack(w, f)
    iwf = w.grid.integrals(np.einsum("...ij,...j->...i", w.values, f))
    for cube in grid_cubes(w.grid):
        i = w.grid.tree.index(cube)
        assert np.allclose(stack[i], weighted_avg(f, cube, w), atol=1e-12)
        # the batched solve is the per-cube solve, bit for bit
        assert np.array_equal(stack[i], np.linalg.solve(w.integral_stack("w")[i], iwf[i]))


def _one_box(g, lo, hi):
    """The oracle's gather of the single box [lo, hi) in lattice steps."""
    lo, hi = [np.array([v]) for v in lo], [np.array([v]) for v in hi]
    return oracle_box_cells(g, lo, hi, [oracle_band_width(g, a, b) for a, b in zip(lo, hi)])


def test_box_avg_matches_cell_sum(rng):
    w = random_weight_field(rng, n=1, N=2, L=3, spread=0.7, mu_spread=0.4)
    g = w.grid
    # [86/288, 230/288): lattice steps of 1/288 at L=3, partial cells at both ends
    lo, hi = 86, 230
    index, bands = _one_box(g, [lo], [hi])
    masses = w.values * g.cell_masses[:, None, None]
    mu_q = oracle_box_integrals(g.cell_masses[index], bands)[0]
    got = oracle_box_integrals(masses[index], bands)[0] / mu_q
    # brute-force cell loop with exact partial overlaps
    lo, hi, width = lo / 288, hi / 288, 2.0**-3
    num = np.zeros((2, 2))
    den = 0.0
    for c in range(8):
        overlap = max(0.0, min(hi, (c + 1) * width) - max(lo, c * width))
        num += w.values[c] * g.mu[c] * overlap
        den += g.mu[c] * overlap
    assert np.allclose(got, num / den, atol=1e-14)


def test_expectation_l2_bound_by_reverse_holder_constant(rng):
    for _ in range(10):
        w = random_weight_field(rng, n=1, N=2, L=3, spread=0.7, mu_spread=0.3)
        _, b2_ii, _, _ = b2_constants(w, shifts=0, directions=0)
        g = w.grid
        mu = g.mu * g.cell_volume
        f = rng.standard_normal((8, 2))
        norm_f = np.sqrt(np.sum(f**2 * mu[:, None]))
        for t in range(4):
            ef = expectation_Et(f, t, w)
            norm_ef = np.sqrt(np.sum(ef**2 * mu[:, None]))
            assert norm_ef <= b2_ii * norm_f * (1 + 1e-10)


def test_partition_exactness(rng):
    g = Grid(2, 2, rng.uniform(0.25, 4.0, (4, 4)))
    for cube in grid_cubes(g, range(2)):
        kids = sum(cube_measure(g, c) for c in cube.children())
        assert abs(kids - cube_measure(g, cube)) <= 1e-14 * cube_measure(g, cube)


def test_doubling_examples():
    assert doubling_of(Grid(1, 2)) == 2.0
    assert doubling_of(Grid(1, 1, [1.0, 1.0])) == 2.0
    # density (1, 9): Q=[1/4,1/2), 2Q=[1/8,5/8) gives (3/8 + 9/8)/(1/4) = 6
    assert abs(doubling_of(Grid(1, 1, [1.0, 9.0])) - 6.0) < 1e-12
    assert doubling_of(Grid(2, 1)) == 4.0


def test_box_measure_partial_cells():
    g = Grid(1, 1, [1.0, 9.0])
    # [1/8, 5/8) = [9, 45) in steps of 1/72 overlaps 3/8 of the first cell and
    # 1/8 of the second; the integral counts each cell in steps, 36 per cell
    index, bands = _one_box(g, [9], [45])
    assert [list(b) for b in bands[0]] == [[27.0, 9.0]]
    assert oracle_box_integrals(g.cell_masses[index], bands)[0] == 1.5 * 36


def test_cube_geometry():
    q = Cube(1, (0, 1))
    kids = q.children()
    assert len(kids) == 4 and all(cube_contains(q, c) for c in kids)
    assert cube_parent(kids[0]) == q
    assert not cube_contains(q, Cube(0, (0, 0)))
    with pytest.raises(ValueError):
        Cube(1, (2,))
    with pytest.raises(ValueError):
        cube_parent(root_cube(2))


def test_shift_families_are_prefix_nested():
    g = Grid(1, 2)
    fam2 = family_labels(g, 2)
    fam4 = family_labels(g, 4)
    assert fam4[: len(fam2)] == fam2


def test_field_file_roundtrip_bitexact(tmp_path, rng):
    w = random_weight_field(rng, n=2, N=2, L=2, spread=1.2, mu_spread=0.5)
    path = tmp_path / "field.wf"
    write_weight_field(path, w)
    back = read_weight_field(path)
    assert np.array_equal(back.values, w.values)
    assert np.array_equal(back.grid.mu, w.grid.mu)
    # writing again gives identical bytes
    path2 = tmp_path / "field2.wf"
    write_weight_field(path2, back)
    assert path.read_text() == path2.read_text()


def test_field_file_errors(tmp_path):
    p = tmp_path / "bad.wf"
    p.write_text("")
    with pytest.raises(FieldFormatError, match="line 1"):
        read_weight_field(p)
    p.write_text("1 1\n")
    with pytest.raises(FieldFormatError, match="header"):
        read_weight_field(p)
    p.write_text("1 1 1\n1.0 2.0\nnot-a-number 1.0\n")
    with pytest.raises(FieldFormatError, match="line 3"):
        read_weight_field(p)
    p.write_text("1 1 1\n1.0 2.0\n")
    with pytest.raises(FieldFormatError, match="expected 2 cell lines"):
        read_weight_field(p)
    p.write_text("1 1 1\n1.0 2.0 7.0\n1.0 1.0\n")
    with pytest.raises(FieldFormatError, match="line 2"):
        read_weight_field(p)
    for bad in ("nan", "inf", "-inf"):
        p.write_text(f"1 1 1\n1.0 2.0\n1.0 {bad}\n")
        with pytest.raises(FieldFormatError, match=r"line 3: weight cell \(1,\) is not finite"):
            read_weight_field(p)
    p.write_text("1 1 1\n1.0 2.0\n1.0 -2.0\n")
    with pytest.raises(FieldFormatError, match=r"line 3: weight cell \(1,\) is not positive"):
        read_weight_field(p)
    p.write_text("1 1 1\n1.0 2.0\n1.0 2.0\njunk\n")
    with pytest.raises(FieldFormatError, match="line 4: unexpected line"):
        read_weight_field(p)
    p.write_text("1 0 1\n")
    with pytest.raises(FieldFormatError, match="line 1"):
        read_weight_field(p)


_TOKENS = st.sampled_from(["nan", "inf", "-inf", "-1.0", "0", "x", "1e400"])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    N=st.integers(1, 3),
    L=st.integers(0, 2),
    data=st.data(),
)
def test_field_reader_fuzz(tmp_path_factory, seed, n, N, L, data):
    """Valid files round-trip; a corrupted one is refused at the corrupted line."""
    rng = np.random.default_rng(seed)
    w = random_weight_field(rng, n=n, N=N, L=L, spread=1.0, mu_spread=0.5)
    path = tmp_path_factory.mktemp("fuzz") / "field.wf"
    write_weight_field(path, w)
    back = read_weight_field(path)
    assert np.array_equal(back.values, w.values) and np.array_equal(back.grid.mu, w.grid.mu)

    lines = path.read_text().splitlines()
    kind = data.draw(st.sampled_from(["token", "drop", "trailing"]))
    if kind == "trailing":
        lines.append(data.draw(st.sampled_from(["junk", "1.0 2.0", "0"])))
        bad_line = len(lines)
    else:
        bad_line = data.draw(st.integers(2, len(lines)))
        parts = lines[bad_line - 1].split()
        if kind == "drop":
            parts.pop(data.draw(st.integers(0, len(parts) - 1)))
        else:
            # the density, or a diagonal entry so that "-1.0" and "0" break positivity
            i = data.draw(st.sampled_from([0] + [1 + d * (N + 1) for d in range(N)]))
            parts[i] = data.draw(_TOKENS)
        lines[bad_line - 1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError) as err:
        read_weight_field(path)
    assert err.value.line == bad_line, str(err.value)


def test_weight_field_rejects_bad_cells():
    g = Grid(1, 1)
    bad = np.array([np.eye(2), -np.eye(2)])
    with pytest.raises(ValueError, match="not positive definite"):
        WeightField(g, bad)
    with pytest.raises(ValueError, match="positive"):
        Grid(1, 1, [1.0, 0.0])


@pytest.mark.parametrize("n, N", [(n, N) for n in (1, 2, 3) for N in (2, 3, 4)])
def test_flat_stacks_match_per_moment_trees(n, N):
    # Each moment, summed in its own tree, gives the oracle's per-moment tree
    # bit for bit, in tree order.
    rng = np.random.default_rng(10 * n + N)
    for L in range(4 if n < 3 else 3):
        w = random_weight_field(rng, n=n, N=N, L=L, spread=0.7, mu_spread=0.6)
        for m in MOMENTS:
            assert np.array_equal(w.average_stack(m), oracle_averages(w, m)), (L, m)


def test_flat_stacks_scalar_field():
    # At N = 1 a power is a scalar channel; each keeps its own tree and still
    # matches the oracle at n = 2, where a stacked scalar sums in another order.
    w = random_weight_field(np.random.default_rng(3), n=2, N=1, L=3, spread=0.8, mu_spread=0.5)
    for m in MOMENTS:
        assert np.array_equal(w.average_stack(m), oracle_averages(w, m)), m


def _shift_limit(n):
    """The number of distinct ninth-shifts of the unit cube past zero."""
    return 3**n + 6**n - 2**n - 1


def _one_row(k):
    """A batch budget that puts one row of boxes in every batch."""
    return 2**30


def _random_budget(rng):
    """A batch budget of log-uniform floats per box, from one row per batch
    to whole families."""
    return lambda k: int(2 ** rng.uniform(0, 17))


def _assert_gathers_match_the_oracle(g, cells, batches):
    """Each batch's box sums of ``cells`` over its boxes and their doubles:
    each axis's starts, band widths (the whole family's) and read-only bands,
    and the box sums of the per-box oracle, bit for bit."""
    for batch in batches:
        for doubled in (False, True):
            plan = batch.family.plan(batch.rows, doubled)
            widths = oracle_band_widths(g, batch, doubled)
            assert [m for _, m, _ in plan] == widths
            index, want = oracle_box_cells(g, *oracle_bounds(g, batch, doubled), widths)
            for (starts, bands), j, ref in zip(plan_rows(plan), index, want, strict=True):
                assert bands.shape == ref.shape and np.array_equal(bands, ref)
                assert np.array_equal(starts, j.reshape(ref.shape)[:, 0])
            for *_, pieces in plan:
                for *_, band in pieces:
                    assert not band.flags.writeable
                    with pytest.raises(ValueError):
                        band[...] = 0
            got, ref = g.box_sums(cells, batch, doubled), oracle_box_sums(g, cells, batch, doubled)
            assert got.shape == ref.shape and np.array_equal(got, ref), (batch.descriptor(0), doubled)


@pytest.mark.parametrize("n, L", [(1, 3), (2, 2), (3, 2)])
def test_box_cells_memo_matches_fresh(n, L):
    # Every batch of every shift vector up to the limit, at the default split
    # and one row per batch (edge rows of 2Q are narrower than the family):
    # each family is built once per grid, and its plans and box sums, for the
    # boxes and for their doubles, are the per-box oracle's with read-only bands.
    g = Grid(n, L, np.random.default_rng(L).uniform(0.5, 2.0, (2**L,) * n))
    for box_floats in (None, _one_row):
        batches = list(g.box_batches(_shift_limit(n), range(g.L + 2), box_floats))
        assert {b.shift for b in batches} == set(range(_shift_limit(n) + 1))
        again = g.box_batches(_shift_limit(n), range(g.L + 2), box_floats)
        assert all(a.family is b.family and a.rows == b.rows for a, b in zip(batches, again, strict=True))
        _assert_gathers_match_the_oracle(g, g.cell_masses, batches)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    depth=st.integers(0, 12),
    shift_share=st.floats(0.0, 1.0),
    budget=st.sampled_from(["default", "one row", "random"]),
    channels=st.integers(0, 13),
)
def test_family_gathers_match_the_per_box_oracle(seed, n, depth, shift_share, budget, channels):
    # The family geometry from each family's offset and side against the
    # per-box formula, over levels 0..L+1, every shift count up to the limit,
    # batches of one row and of random budgets, and cells with a tail of
    # channels (none, or 1-13).
    rng = np.random.default_rng(seed)
    L = min(depth, {1: 12, 2: 5, 3: 3}[n])
    g = Grid(n, L)
    shifts = round(shift_share * _shift_limit(n))
    box_floats = {"default": None, "one row": _one_row, "random": _random_budget(rng)}[budget]
    batches = list(g.box_batches(shifts, range(g.L + 2), box_floats))
    tail = (channels,) if channels else ()
    cells = rng.uniform(0.1, 10.0, (g.side,) * n + tail)
    _assert_gathers_match_the_oracle(g, cells, batches)


@pytest.mark.parametrize("n, L, shifts", [(1, 10, 6), (2, 6, 12), (3, 4, 12)])
def test_batches_sum_their_boxes_as_their_whole_family_does(n, L, shifts):
    # Every band width is the family's, so under one-row and random budgets
    # each batch's Q and 2Q box sums, of a scalar and of a 5-channel cell
    # array, are the rows of its whole family's sums bit for bit, at levels
    # 0..L + 1: the split sets no bit.
    rng = np.random.default_rng(10 * n + L)
    g = Grid(n, L, rng.uniform(0.5, 2.0, (2**L,) * n))
    for tail in ((), (5,)):
        cells = rng.uniform(0.1, 10.0, (g.side,) * n + tail)
        whole = {}
        for box_floats in (_one_row, _random_budget(rng)):
            for batch in g.box_batches(shifts, range(L + 2), box_floats):
                family, (first, stop) = batch.family, batch.rows
                for doubled in (False, True):
                    if (family, doubled) not in whole:
                        every = g.box_sums(cells, BoxBatch(family, (0, family.counts[0])), doubled)
                        whole[family, doubled] = every.reshape((family.counts[0], -1) + tail)
                    got = g.box_sums(cells, batch, doubled)
                    want = whole[family, doubled][first:stop].reshape(got.shape)
                    assert np.array_equal(got, want), (batch.descriptor(0), batch.rows, doubled)


@pytest.mark.parametrize("n, N, L, keys", [(1, 3, 7, CLASS_KEYS), (2, 2, 5, CLASS_KEYS), (3, 2, 4, CLASS_KEYS),
                                          (3, 1, 5, ("thewest", "doubling")), (2, 2, 6, ("doubling",))])
def test_a_batch_of_many_rows_holds_at_most_the_budget(monkeypatch, n, N, L, keys):
    # Per row a batch holds the floats per box that its reader names for each
    # of the row's boxes or of the side**(n-1) sums of the first axis,
    # whichever are more.  A batch of more than one row holds at most
    # _BATCH_FLOATS of them, and a batch stops short of its family's end only
    # where one more row would pass the budget.  The family scan names two
    # floats per box at level L + 1, mu(Q) and mu(2Q).
    real, seen = Grid.box_batches, []

    def recorded(self, shifts, levels=None, box_floats=None):
        for batch in real(self, shifts, levels, box_floats):
            seen.append((batch, box_floats(batch.level)))
            yield batch

    monkeypatch.setattr(Grid, "box_batches", recorded)
    w = random_weight_field(np.random.default_rng(L), n=n, N=N, L=L, mu_spread=0.5)
    family_scan(w, keys, shifts=2)
    g = w.grid
    assert seen and all(floats >= 2 for _, floats in seen)
    assert all(floats == 2 for batch, floats in seen if batch.level > g.L)
    for batch, floats in seen:
        (first, stop), family = batch.rows, batch.family
        per_row = floats * max(family.row_boxes, g.side ** (n - 1))
        assert stop - first == 1 or (stop - first) * per_row <= grid._BATCH_FLOATS, batch.descriptor(0)
        assert stop == family.counts[0] or (stop - first + 1) * per_row > grid._BATCH_FLOATS
    assert any(batch.rows[1] - batch.rows[0] > 1 for batch, _ in seen)


@pytest.mark.parametrize("n, N, L, keys", [(3, 2, 5, ("thewest",)), (3, 2, 5, ("b2_iv",)), (3, 1, 5, ("thewest",)),
                                          (2, 2, 6, CLASS_KEYS)])
def test_a_batch_of_many_rows_sums_its_first_axis_within_the_budget(monkeypatch, n, N, L, keys):
    # Each box sum of a batch of more than one row holds at most _BATCH_FLOATS
    # floats in the sums of its first axis: rows x side**(n-1) x the channels
    # it gathers, mu among them, however few of them the kernel reads.
    real, seen = Grid.box_sums, []

    def recorded(self, cells, batch, doubled=False):
        rows = batch.rows[1] - batch.rows[0]
        seen.append((rows, rows * self.side ** (self.n - 1) * math.prod(cells.shape[self.n :]), batch))
        return real(self, cells, batch, doubled)

    monkeypatch.setattr(Grid, "box_sums", recorded)
    family_scan(random_weight_field(np.random.default_rng(L), n=n, N=N, L=L, mu_spread=0.5), keys, shifts=2)
    assert any(rows > 1 for rows, _, _ in seen)
    for rows, floats, batch in seen:
        assert rows == 1 or floats <= grid._BATCH_FLOATS, (batch.descriptor(0), batch.rows, floats)


def test_a_scan_builds_each_family_once_and_views_the_cells(monkeypatch):
    # A family scan builds each (shift, level) family once per grid, and a
    # scan of another field on the grid builds none.  Every piece of every box
    # sum, of Q and of 2Q at levels 0..L + 1, reads a view of the cell array
    # it sums or of the previous axis's sums, no copy.
    built, sums = [], []
    box_sums, einsum = Grid.box_sums, np.einsum

    class Counted(grid._Family):
        def __init__(self, shift, level, *args):
            built.append((shift, level))
            super().__init__(shift, level, *args)

    def counted_sums(self, cells, batch, doubled=False):
        sums.append((batch.level, doubled, cells, []))
        return box_sums(self, cells, batch, doubled)

    def counted_einsum(*operands, **kwargs):
        if operands[0] == "akjb,j->akb":
            sums[-1][3].append((operands[1], kwargs["out"]))
        return einsum(*operands, **kwargs)

    monkeypatch.setattr(grid, "_Family", Counted)
    monkeypatch.setattr(Grid, "box_sums", counted_sums)
    monkeypatch.setattr(np, "einsum", counted_einsum)
    w = random_weight_field(np.random.default_rng(5), n=2, N=2, L=3, mu_spread=0.5)
    g = w.grid
    family_scan(w, CLASS_KEYS, shifts=4)
    assert len(built) == len(set(built)) == len([f for f in g._families.values() if f is not None])
    assert {level for _, level in built} == set(range(g.L + 2))
    family_scan(WeightField(g, w.values), ("thewest", "doubling"), shifts=4)
    assert len(built) == len(set(built))
    for level, doubled, cells, pieces in sums:
        assert pieces
        read = [cells]
        for view, out in pieces:
            # A read-only array lends its memory through a buffer of its own.
            assert not view.flags.owndata and any(np.shares_memory(view, a) for a in read)
            read.append(out.base)
    assert {(level > g.L, doubled) for level, doubled, *_ in sums} == {(a, b) for a in (0, 1) for b in (0, 1)}
    assert any(c is not g.cell_masses for _, _, c, _ in sums)


def test_a_doubled_box_sum_holds_its_axis_sums_only():
    # Contracted one axis at a time, the 2Q box sums of an n = 3 batch
    # allocate no more than the sums of each axis (and a few Python objects),
    # far below the count^3 m^3 block of band cells that a gather would copy.
    g = Grid(3, 4, np.random.default_rng(3).uniform(0.5, 2.0, (16,) * 3))
    cells = np.random.default_rng(4).uniform(0.1, 1.0, (16,) * 3 + (2,))
    batch = next(b for b in g.box_batches(1, [2]) if b.shift == 1)
    index, bands = oracle_box_cells(g, *oracle_bounds(g, batch, True), oracle_band_widths(g, batch, True))
    counts = [len(b) for b in bands]
    axis_sums = sum(math.prod(counts[: a + 1]) * 16 ** (2 - a) * 2 * 8 for a in range(3))
    block = math.prod(counts) * math.prod(b.shape[1] for b in bands) * 2 * 8
    want = oracle_box_sums(g, cells, batch, True)
    assert np.array_equal(g.box_sums(cells, batch, True), want)
    tracemalloc.start()
    try:
        got = g.box_sums(cells, batch, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= axis_sums + 4096 and 10 * axis_sums < block, (peak, axis_sums, block)


def test_field_reader_counts_numbers_line_by_line(tmp_path):
    # A token moved to another line keeps the file's total count; the reader
    # still refuses the first line whose count is off.
    p = tmp_path / "moved.wf"
    for text, line, found in (
        ("1 1 1\n1.0\n1.0 2.0 3.0\n", 2, 1),
        ("1 1 1\n1.0 2.0 3.0\n1.0\n", 2, 3),
        ("1 1 1\n1.0 2.0\n1.0 x\n", 3, None),
    ):
        p.write_text(text)
        with pytest.raises(FieldFormatError) as err:
            read_weight_field(p)
        assert err.value.line == line
        assert str(err.value).endswith(
            f"expected 2 numbers, found {found}" if found else "unparsable number"
        ), str(err.value)
