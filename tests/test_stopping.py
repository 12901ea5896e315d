import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import grid as grid_module
from dwlab.cli import main
from dwlab.grid import Cube, CubeTree, Grid, WeightField, read_weight_field, root_cube, write_weight_field
from dwlab.harness import inclusion_search
from dwlab.stopping import (
    StoppingCriterion,
    anchor_owners,
    chain_owners,
    corona_criterion,
    corona_stop,
    first_generation_levels,
    first_generation_ratio,
    kato_criterion,
    kato_family_stop,
    loewner_geq,
    martingale_square_check,
    norm_exceeds,
    packing_constant,
    partition_residual,
    run_stopping,
    volberg_criterion,
    volberg_stop,
)
from dwlab.tb import CanonicalFamily, make_gamma, tb_run

from conftest import (
    ALWAYS,
    NEVER,
    anchor_loop,
    bernoulli_criterion,
    chain_residual,
    cube_average,
    cube_contains,
    cube_measure,
    cube_parent,
    cube_walk,
    first_generation,
    kato_stop,
    oracle_averages,
    oracle_corona_criterion,
    oracle_volberg_criterion,
    owner_levels,
    random_weight_field,
)


def ones_field(L, n=1, N=1):
    side = 2**L
    vals = np.broadcast_to(np.eye(N), (side,) * n + (N, N)).copy()
    return WeightField(Grid(n, L), vals)


def cubes(res, idx):
    return [res.tree.cube(i) for i in idx]


def residual(res, weight=None):
    """The independent partition check of ``res``; cube counting by default."""
    if weight is None:
        weight = np.ones(res.tree.size)
    return partition_residual(res.tree, res.criterion, res.root, res.cubes, res.owner, weight)


def sawtooth(res, s):
    """Cubes of the box of stop ``s`` whose owner is ``s``."""
    return cubes(res, res.cubes[res.owner == res.tree.index(s)])


def first_gen(res, s):
    """The first generation of stop ``s``: the stops whose parent stop it is."""
    return cubes(res, res.stops[res.parents == res.tree.index(s)])


def test_never_fires():
    res = run_stopping(root_cube(1), NEVER, CubeTree(1, 2))
    assert cubes(res, res.stops) == [root_cube(1)]
    assert len(sawtooth(res, root_cube(1))) == 7
    assert packing_constant(res, Grid(1, 2)) == 1.0
    assert residual(res) == 0.0


def test_always_fires_full_subdivision():
    res = run_stopping(root_cube(1), ALWAYS, CubeTree(1, 2))
    assert [len(g) for g in res.generations] == [1, 2, 4]
    assert packing_constant(res, Grid(1, 2)) == 3.0  # depth d=2 gives d+1
    assert all(sawtooth(res, s) == [s] for s in cubes(res, res.stops))
    assert residual(res) == 0.0


def test_hand_tree_left_half():
    target = Cube(1, (0,))
    crit = StoppingCriterion("left", lambda tree, s, r: r == tree.index(target))
    res = run_stopping(root_cube(1), crit, CubeTree(1, 2))
    assert first_gen(res, root_cube(1)) == [target]
    got = {c.descriptor() for c in sawtooth(res, root_cube(1))}
    assert got == {
        "level=0 coords=0",
        "level=1 coords=1",
        "level=2 coords=2",
        "level=2 coords=3",
    }
    assert residual(res) == 0.0
    assert packing_constant(res, Grid(1, 2)) == 1.5


def test_parent_map_invariant(rng):
    for seed in range(20):
        crit = bernoulli_criterion(0.4, seed)
        res = run_stopping(root_cube(1), crit, CubeTree(1, 4))
        stops = set(cubes(res, res.stops))
        assert res.parents[0] == -1
        for r, parent in zip(cubes(res, res.stops[1:]), cubes(res, res.parents[1:])):
            assert cube_contains(parent, r) and parent != r
            # no stopping cube strictly between
            walk = r
            while True:
                walk = cube_parent(walk)
                if walk == parent:
                    break
                assert walk not in stops


def test_partition_residual_weighted(rng):
    g = Grid(1, 4, rng.uniform(0.3, 3.0, 16))
    for seed in range(10):
        res = run_stopping(root_cube(1), bernoulli_criterion(0.3, seed), g.tree)
        assert residual(res) == 0.0
        assert residual(res, g.mu_stack) == 0.0


def test_geometric_packing_bound(rng):
    # When every root keeps first-generation mass ratio <= c < 1, the full
    # packing is at most 1/(1-c).
    g = Grid(1, 5, rng.uniform(0.5, 2.0, 32))
    for seed in range(12):
        res = run_stopping(root_cube(1), bernoulli_criterion(0.25, seed + 100), g.tree)
        ratios = []
        for s in cubes(res, res.stops):
            mass = sum(cube_measure(g, r) for r in first_gen(res, s))
            ratios.append(mass / cube_measure(g, s))
        c = max(ratios)
        if c < 1.0:
            assert packing_constant(res, g) <= 1.0 / (1.0 - c) + 1e-9


def chain_pieces(root, crits, L):
    """The iterated sawtooth decomposition of ``crits`` under ``root``: S1 from
    ``anchor_owners``, each later owner from ``chain_owners`` started at the
    previous one.  Maps each owner chain to its cubes, in box preorder."""
    tree = CubeTree(root.n, L)
    box = tree.box(tree.index(root))
    chain = [np.concatenate(anchor_owners(tree, crits[0], box[0], root.level).levels(root.level))]
    for crit in crits[1:]:
        fires = lambda s, a, rows, crit=crit: crit.fires_many(tree, s, a)  # noqa: E731
        chain.append(chain_owners(tree, chain[-1], box, fires))
    pieces = {}
    for i in np.argsort(tree.preorder(box), kind="stable"):
        key = tuple(tree.cube(owner[i]) for owner in chain)
        pieces.setdefault(key, []).append(tree.cube(box[i]))
    return pieces


def test_iterated_trivial_and_single():
    pieces = chain_pieces(root_cube(1), [NEVER, NEVER], 2)
    assert list(pieces) == [(root_cube(1), root_cube(1))]
    assert len(pieces[root_cube(1), root_cube(1)]) == 7
    tree = CubeTree(1, 2)
    assert chain_residual(tree, NEVER, NEVER, np.ones(tree.size)) == 0.0
    # k=1 reduces to plain sawtooths
    crit = bernoulli_criterion(0.5, 3)
    pieces = chain_pieces(root_cube(1), [crit], 3)
    res = run_stopping(root_cube(1), crit, CubeTree(1, 3))
    expected = {(s,): sawtooth(res, s) for s in cubes(res, res.stops)}
    got = {k: sorted(v) for k, v in pieces.items()}
    assert got == {k: sorted(v) for k, v in expected.items() if v}
    assert {(s,) for gen in cube_walk(root_cube(1), crit, 3)[0] for s in gen} == set(expected)


def test_iterated_always_singletons():
    pieces = chain_pieces(root_cube(1), [ALWAYS, ALWAYS], 2)
    assert all(len(v) == 1 for v in pieces.values())
    assert all(k == (v[0], v[0]) for k, v in pieces.items())
    assert sum(len(v) for v in pieces.values()) == 7
    tree = CubeTree(1, 2)
    assert chain_residual(tree, ALWAYS, ALWAYS, np.ones(tree.size)) == 0.0


def test_iterated_two_random_criteria(rng):
    # The nested (S1, S2) decomposition of two criteria matches the rebuild
    # from first generations, by count and by measure.
    g = Grid(1, 4, rng.uniform(0.4, 2.5, 16))
    tree = CubeTree(1, 4)
    for seed in range(8):
        crits = [bernoulli_criterion(0.35, seed), bernoulli_criterion(0.35, seed + 77)]
        assert chain_residual(tree, *crits, np.ones(tree.size)) == 0.0
        assert chain_residual(tree, *crits, g.mu_stack) == 0.0


def _owner_walk(anchor, cube, first_gen):
    """The stop under ``anchor`` whose sawtooth holds ``cube``: step into the
    first generation of the current stop while one of its cubes holds it."""
    s = anchor
    while True:
        selected = first_gen(s)
        for level in range(s.level + 1, cube.level + 1):
            anc = Cube(level, tuple(c >> (cube.level - level) for c in cube.coords))
            if anc in selected:
                s = anc
                break
        else:
            return s


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    k=st.integers(1, 3),
    L=st.integers(1, 4),
    root_level=st.integers(0, 1),
    p=st.floats(0.05, 0.6),
    seed=st.integers(0, 10**6),
)
def test_iterated_sawtooth_matches_owner_walk_oracle(n, k, L, root_level, p, seed):
    # Oracle: the Cube-walk first generations per (criterion, stop), and per
    # cube the owner walk of each decomposition rooted at the previous owner.
    L = min(L, 3) if n == 2 else L
    level = min(root_level, L)
    coords = np.random.default_rng(seed).integers(0, 2**level, n)
    root = Cube(level, tuple(int(c) for c in coords))
    crits = [bernoulli_criterion(p, seed + 1000 * i) for i in range(k)]
    memo = {}

    def first_gen(i):
        def get(s):
            if (i, s) not in memo:
                memo[i, s] = set(first_generation(s, crits[i], L))
            return memo[i, s]

        return get

    expected, stack = {}, [root]
    while stack:  # the box of root in depth-first preorder
        cube = stack.pop()
        chain, anchor = [], root
        for i in range(k):
            anchor = _owner_walk(anchor, cube, first_gen(i))
            chain.append(anchor)
        expected.setdefault(tuple(chain), []).append(cube)
        if cube.level < L:
            stack.extend(reversed(cube.children()))
    got = chain_pieces(root, crits, L)
    assert got == expected  # the same pieces, with their cubes in the same order


def _criterion(kind, w, rng):
    if kind == "bernoulli":
        return bernoulli_criterion(float(rng.uniform(0.1, 0.6)), int(rng.integers(10**6)))
    if kind == "never":
        return NEVER
    if kind == "always":
        return ALWAYS
    if kind == "corona":
        return corona_criterion(w, float(rng.uniform(0.02, 0.3)))
    if kind == "volberg":
        return volberg_criterion(w, float(rng.uniform(1.02, 1.6)))
    v0 = rng.standard_normal(2)
    v0 /= np.linalg.norm(v0)
    expectation = lambda w_s, w_r, r: CanonicalFamily.expectations(w_s, w_r, v0)  # noqa: E731
    return kato_criterion(w, v0, float(rng.uniform(0.8, 0.99)), expectation)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    L=st.integers(1, 4),
    root_level=st.integers(0, 1),
    kind=st.sampled_from(["bernoulli", "never", "always", "corona", "volberg", "kato"]),
    seed=st.integers(0, 10**6),
)
def test_run_stopping_matches_cube_walk_oracle(n, L, root_level, kind, seed):
    # The same stops in every generation, in the Cube walk's (depth-first)
    # order, and the same parent stop for every stop.  Smooth fields, so that
    # the field criteria fire at some cubes and not at others.
    L = min(L, 3) if n == 2 else L
    rng = np.random.default_rng(seed)
    root = Cube(min(root_level, L), tuple(int(c) for c in rng.integers(0, 2 ** min(root_level, L), n)))
    w = random_weight_field(rng, n=n, N=2, L=L, spread=float(rng.uniform(0.05, 0.4)), mu_spread=0.3)
    crit = _criterion(kind, w, rng)
    res = run_stopping(root, crit, w.grid.tree)
    generations, parent = cube_walk(root, crit, L)
    assert [cubes(res, gen) for gen in res.generations] == generations
    assert res.parents[0] == -1
    assert dict(zip(cubes(res, res.stops[1:]), cubes(res, res.parents[1:]))) == parent


def test_volberg_examples():
    const = ones_field(2, N=2)
    res, ratio = volberg_stop(root_cube(1), const, 2.0)
    assert ratio == 0.0 and cubes(res, res.stops) == [root_cube(1)]

    eps = 0.05
    w = WeightField(Grid(1, 1), np.array([1.0, eps]).reshape(2, 1, 1))
    w_q = (1 + eps) / 2
    res, ratio = volberg_stop(root_cube(1), w, 4.0)
    assert w_q / eps >= 4.0
    assert [c.descriptor() for c in first_gen(res, root_cube(1))] == ["level=1 coords=1"]
    assert ratio == 0.5
    # below the threshold nothing fires
    res, ratio = volberg_stop(root_cube(1), w, 1.0 + w_q / eps)
    assert ratio == 0.0
    with pytest.raises(ValueError):
        volberg_stop(root_cube(1), w, 1.0)


def test_volberg_mass_monotone_in_lambda(rng):
    w = random_weight_field(rng, N=2, L=5, spread=0.8)
    ratios = [volberg_stop(root_cube(1), w, lam)[1] for lam in (2.0, 4.0, 16.0)]
    assert ratios[0] >= ratios[1] >= ratios[2]


def test_kato_examples(rng):
    w = ones_field(2, N=2)
    v0 = np.array([1.0, 0.0])
    b = np.broadcast_to(v0, (4, 2)).copy()
    res, ratio = kato_stop(root_cube(1), w, b, v0, 0.3)
    assert ratio == 0.0 and cubes(res, res.stops) == [root_cube(1)]

    # a child with huge average is selected by the energy clause
    b_big = b.copy()
    b_big[0] = [50.0, 0.0]
    res, ratio = kato_stop(root_cube(1), w, b_big, v0, 0.3)
    selected = first_gen(res, root_cube(1))
    assert any(cube_contains(c, Cube(2, (0,))) for c in selected)

    # orthogonal mean triggers the projection clause at the first child
    b_orth = np.broadcast_to([0.0, 1.0], (4, 2)).copy()
    res, ratio = kato_stop(root_cube(1), w, b_orth, v0, 0.3)
    assert ratio == 1.0  # both children selected immediately


@pytest.mark.parametrize("n,L", [(1, 4), (2, 3)])
def test_one_cube_tree_per_grid(monkeypatch, tmp_path, rng, n, L):
    # Every walk and tally on a grid reads the one tree Grid.tree builds:
    # each corona CLI run (every criterion, and a --root sub-cube), tb-run
    # and in-process walk builds one, and all the walks on one field share
    # it.  check-weight and inclusion-search build none.
    built = []
    real = grid_module.CubeTree

    class Counted(real):
        def __init__(self, n, L):
            built.append((n, L))
            super().__init__(n, L)

    monkeypatch.setattr(grid_module, "CubeTree", Counted)
    path, report = tmp_path / "w.wf", str(tmp_path / "report.json")
    write_weight_field(path, random_weight_field(rng, n=n, N=2, L=L, spread=0.6, mu_spread=0.3))
    corona = [
        ["corona", "--field", str(path), "--criterion", crit, "--param", param, "--report", report]
        for crit, param in (("volberg", "16"), ("corona", "0.01"), ("kato", "0.3"))
    ]
    tb_cli = ["tb-run", "--field", str(path), "--gamma", "martingale", "--report", report]
    for argv in corona + [corona[1] + ["--root", ",".join(["1"] * (n + 1))], tb_cli]:
        built.clear()
        assert main(argv) == 0
        assert built == [(n, L)]

    v0 = np.eye(2)[0]
    b = np.broadcast_to(v0, (2**L,) * n + (2,))
    calls = [
        lambda f: corona_stop(root_cube(n), f, 0.05),
        lambda f: volberg_stop(root_cube(n), f, 2.0),
        lambda f: kato_stop(root_cube(n), f, b, v0, 0.3),
        lambda f: kato_family_stop(root_cube(n), f, CanonicalFamily(f), v0, 0.3),
        lambda f: packing_constant(volberg_stop(root_cube(n), f, 2.0)[0], f.grid),
        lambda f: first_generation_ratio(corona_stop(root_cube(n), f, 0.05)[0], f.grid),
        lambda f: martingale_square_check(f, corona_stop(root_cube(n), f, 0.05)[0]),
        lambda f: tb_run(f, make_gamma("martingale", f), eps2=0.3),
    ]
    for call in calls:
        built.clear()
        call(read_weight_field(path))
        assert built == [(n, L)]
    built.clear()
    field = read_weight_field(path)
    for call in calls:
        call(field)
    assert built == [(n, L)]
    assert np.array_equal(field.average_stack("w"), oracle_averages(field, "w"))

    built.clear()
    assert main(["check-weight", "--field", str(path), "--report", report]) == 0
    inclusion_search(n, 2, 2, b2_cap=2.0, budget=5, seed=1)
    assert built == []


@pytest.mark.parametrize("root", [Cube(5, (0,)), Cube(1, (0, 1))], ids=["past-L", "other-n"])
def test_walks_refuse_a_root_outside_the_tree(root):
    # A level past L or a cube of another dimension is refused by name, not
    # left to escape as an IndexError from an index array.
    w = ones_field(3, N=2)
    v0 = np.eye(2)[0]
    walks = [
        lambda: run_stopping(root, ALWAYS, CubeTree(1, 3)),
        lambda: volberg_stop(root, w, 4.0),
        lambda: corona_stop(root, w, 0.1),
        lambda: kato_stop(root, w, np.broadcast_to(v0, (8, 2)), v0, 0.3),
        lambda: kato_family_stop(root, w, CanonicalFamily(w), v0, 0.3),
    ]
    for walk in walks:
        with pytest.raises(ValueError, match=f"cube {root.descriptor()} is not in the tree of n=1, L=3"):
            walk()


def test_kato_family_canonical_contraction(rng):
    for i in range(15):
        w = random_weight_field(rng, N=2, L=4, spread=0.5)
        v0 = rng.standard_normal(2)
        v0 /= np.linalg.norm(v0)
        res, ratio = kato_family_stop(root_cube(1), w, CanonicalFamily(w), v0, 0.1)
        assert ratio <= 0.99
        assert residual(res) == 0.0


def test_corona_constant_and_two_scale():
    const = ones_field(2, N=2)
    res, pack = corona_stop(root_cube(1), const, 0.3)
    assert pack == 1.0

    # Symmetric two-value split: both children sit at relative gap
    # (c-1)/(c+1) from the root average, so with c = 1 + 2*eps3 the strict
    # criterion does not fire at all.
    eps3 = 0.2
    w = WeightField(Grid(1, 2), np.array([1.0, 1.0, 1 + 2 * eps3, 1 + 2 * eps3]).reshape(4, 1, 1))
    res, pack = corona_stop(root_cube(1), w, eps3)
    assert cubes(res, res.stops) == [root_cube(1)] and pack == 1.0

    # Push the ratio past (1+eps3)/(1-eps3): both children fire, and inside
    # each half the field is constant, so the tree stops there.
    c = 1.3 * (1 + eps3) / (1 - eps3)
    w = WeightField(Grid(1, 2), np.array([1.0, 1.0, c, c]).reshape(4, 1, 1))
    res, pack = corona_stop(root_cube(1), w, eps3)
    assert {x.descriptor() for x in first_gen(res, root_cube(1))} == {
        "level=1 coords=0",
        "level=1 coords=1",
    }
    assert len(res.generations) == 2 and pack == 2.0


def test_corona_random_fields(rng):
    for _ in range(10):
        w = random_weight_field(rng, N=2, L=4, spread=0.6, mu_spread=0.3)
        res, pack = corona_stop(root_cube(1), w, 0.15)
        assert 1.0 <= pack <= 5.0 + 1e-12  # depth bound: L+1 generations
        assert residual(res) == 0.0


def test_corona_sawtooth_oscillation_bound(rng):
    # Inside every sawtooth the averages stay within eps3 of the top's, measured
    # from the cell values and mu directly rather than through the criterion;
    # the slack only covers rounding between the two computations.
    def avg(w, cube):
        sl = cube.cell_slices(w.grid.L)
        mu = w.grid.mu[sl][..., None, None]
        return np.sum(w.values[sl] * mu, axis=tuple(range(w.grid.n))) / np.sum(mu)

    for i in range(6):
        n = 1 + i % 2
        w = random_weight_field(rng, n=n, N=2, L=4 if n == 1 else 3, spread=0.6, mu_spread=0.3)
        eps3 = 0.1 + 0.05 * i
        res, _ = corona_stop(root_cube(n), w, eps3)
        assert len(res.stops) > 1
        for s in cubes(res, res.stops):
            w_s = avg(w, s)
            for r in sawtooth(res, s):
                dev = np.linalg.solve(w_s, avg(w, r)) - np.eye(2)
                assert np.linalg.norm(dev, 2) <= eps3 * (1.0 + 1e-12), (s, r)


def _near_threshold_rows(rng, kind, N, count, t0):
    """``count`` matrices of ``kind`` scaled so that each top singular value
    is ``t0`` to a few ulps."""
    g = rng.standard_normal((count, N, N))
    if kind == "rank_one":
        a = g[:, :, :1] * g[:, :1, :]
    elif kind == "scaled_orthogonal":
        a = np.linalg.qr(g)[0]
    else:
        a = g
    return a * (t0 / np.linalg.svd(a, compute_uv=False)[:, 0])[:, None, None]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["rank_one", "scaled_orthogonal", "general"]),
    N=st.integers(1, 4),
    ulps=st.integers(-2, 2),
    strict=st.booleans(),
    t0=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_norm_screen_matches_svd_at_the_threshold(kind, N, ulps, strict, t0, seed):
    # Rows whose computed top singular value lies within 1e-15 relative of t,
    # on both sides.  Rank-one rows meet the upper bound |A|_F and scaled
    # orthogonal rows the lower bound |A|_F / sqrt(N), so only the margin
    # keeps the Frobenius screen from deciding them by rounding.
    a = _near_threshold_rows(np.random.default_rng(seed), kind, N, 256, t0)
    t = np.float64(t0)
    for _ in range(abs(ulps)):
        t = np.nextafter(t, ulps * np.inf)
    top = np.linalg.svd(a, compute_uv=False)[:, 0]
    near = np.abs(top - t) <= 1e-15 * t
    assert near.sum() >= 8
    a, top = a[near], top[near]
    assert np.array_equal(norm_exceeds(a, t, strict), top > t if strict else top >= t)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,N,L", [(1, 2, 6), (1, 3, 5), (2, 2, 3), (2, 3, 3)])
def test_screened_walks_match_svd_oracle(n, N, L, seed):
    # Thresholds are exact computed norms of rows under the root, so some
    # rows tie and the walks hold both fired and unfired cubes.
    w = random_weight_field(np.random.default_rng(seed), n, N, L, spread=0.6, mu_spread=0.3)
    tree = CubeTree(n, L)
    avg = w.average_stack("w")
    cor = np.linalg.svd(np.linalg.inv(avg[0]) @ avg - np.eye(N), compute_uv=False)[1:, 0]
    vol = np.linalg.svd(avg[0] @ np.linalg.inv(avg), compute_uv=False)[1:, 0]
    pairs = []
    for q in (0.2, 0.5, 0.8):
        eps3 = float(np.quantile(cor, q, method="lower"))
        lam = float(np.quantile(vol, q, method="lower"))
        pairs.append((corona_criterion(w, eps3), oracle_corona_criterion(w, eps3)))
        pairs.append((volberg_criterion(w, lam), oracle_volberg_criterion(w, lam)))
    rows = np.arange(1, tree.size)
    for crit, oracle in pairs:
        fired = crit.fires_many(tree, np.zeros_like(rows), rows)
        assert 0 < fired.sum() < rows.size
        assert np.array_equal(fired, oracle.fires_many(tree, np.zeros_like(rows), rows))
        chains = anchor_owners(tree, crit, 0, L)
        for j in range(L + 1):
            span = tree.span(j)
            for got, want in zip(chains.levels(j), owner_levels(tree, oracle, span)):
                assert np.array_equal(got, want)
            got = first_generation_levels(tree, crit, span)
            assert np.array_equal(got, first_generation_levels(tree, oracle, span))
        for root in (root_cube(n), Cube(1, (1,) * n)):
            got, want = run_stopping(root, crit, tree), run_stopping(root, oracle, tree)
            for name in ("cubes", "owner", "stops", "parents"):
                assert np.array_equal(getattr(got, name), getattr(want, name))


def _counted(crit, seen):
    """``crit`` that records every (S, R) row it decides in ``seen``."""

    def fires_many(tree, s, r):
        seen.extend(zip(s.tolist(), r.tolist()))
        return crit.fires_many(tree, s, r)

    return StoppingCriterion(crit.name, fires_many)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(["corona", "volberg"]),
    threshold=st.floats(0.0, 1.0),
    deep=st.booleans(),
    anchors=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_anchor_owners_match_per_anchor_loop(n, kind, threshold, deep, anchors, seed):
    # The shared propagation gives, for every anchor level of the box down to
    # the deepest asked for, the owners of the per-anchor loop, and decides
    # each distinct (owner, cube) pair that loop decides exactly once.
    L = {1: 6, 2: 3, 3: 2}[n]
    rng = np.random.default_rng(seed)
    w = random_weight_field(rng, n=n, N=2, L=L, spread=float(rng.uniform(0.05, 0.6)), mu_spread=0.3)
    if kind == "corona":
        crit = corona_criterion(w, 0.02 + 0.6 * threshold)
    else:
        crit = volberg_criterion(w, 1.0 + 3.0 * threshold)
    tree = CubeTree(n, L)
    top = 0 if not deep else tree.index(Cube(1, (1,) * n))
    first = int(tree.level[top])
    deepest = first + int(anchors * (L - first))
    shared, looped = [], []
    chains = anchor_owners(tree, _counted(crit, shared), top, deepest)
    want = anchor_loop(tree, _counted(crit, looped), top, deepest)
    for j, expect in enumerate(want, first):
        assert np.array_equal(np.concatenate(chains.levels(j)), expect)
    assert len(shared) == len(set(shared)) and set(shared) == set(looped)
    # Each level's pairs are distinct, the cubes' own pairs first in column
    # order, and down to the deepest anchor level every cube has its own.
    box = tree.box(top)
    for k, (own, col) in enumerate(zip(chains.owner, chains.column), first):
        selfs = np.count_nonzero(own == box[tree.level[box] == k][col])
        assert np.all(own[:selfs] == box[tree.level[box] == k][col[:selfs]])
        assert np.all(np.diff(col[:selfs]) > 0)
        if k <= deepest:
            assert selfs == 2 ** (n * (k - first))
        assert len(set(zip(own.tolist(), col.tolist()))) == len(own)


def test_martingale_two_cell_equality():
    w = WeightField(Grid(1, 1), np.array([1.0, 3.0]).reshape(2, 1, 1))
    res = run_stopping(root_cube(1), ALWAYS, w.grid.tree)
    lhs, rhs, ok = martingale_square_check(w, res)
    assert ok
    assert abs(lhs[0, 0] - 1.0) < 1e-14
    assert abs(rhs[0, 0] - 1.0) < 1e-14

    const = ones_field(1)
    lhs, rhs, ok = martingale_square_check(const, run_stopping(root_cube(1), ALWAYS, const.grid.tree))
    assert ok and np.allclose(lhs, 0) and np.allclose(rhs, 0)


def test_martingale_random_trees(rng):
    for seed in range(60):
        N = int(rng.integers(1, 4))
        w = random_weight_field(rng, N=N, L=3, spread=0.9, mu_spread=0.4)
        res = run_stopping(root_cube(1), bernoulli_criterion(0.45, seed), w.grid.tree)
        lhs, rhs, ok = martingale_square_check(w, res)
        assert ok
        assert loewner_geq(rhs, lhs, 1e-9 * max(np.max(np.abs(rhs)), 1e-300))


def test_martingale_reads_its_root_from_the_result():
    # A result rooted at a sub-cube Q is checked against that cube's
    # ((W^2)_Q - W_Q W_Q) mu(Q).
    w = random_weight_field(np.random.default_rng(5), n=1, N=2, L=5, spread=0.9, mu_spread=0.4)
    for root in (Cube(1, (1,)), Cube(2, (1,))):
        res, _ = corona_stop(root, w, 0.01)
        lhs, rhs, ok = martingale_square_check(w, res)
        w_q = cube_average(w, root)
        assert ok and len(res.stops) > 1
        assert np.array_equal(rhs, (cube_average(w, root, "w2") - w_q @ w_q) * cube_measure(w.grid, root))


def test_box_cubes_count():
    for root, L, count in ((root_cube(1), 3, 15), (Cube(1, (0, 1)), 2, 5)):
        tree = CubeTree(root.n, L)
        box = tree.box(tree.index(root))
        assert len(box) == count  # 1 + 2**n children + ... down to level L
        # sorted by the preorder key, the box is the depth-first Cube walk
        walk, stack = [], [root]
        while stack:
            cube = stack.pop()
            walk.append(cube)
            if cube.level < L:
                stack.extend(reversed(cube.children()))
        assert [tree.cube(i) for i in box[np.argsort(tree.preorder(box))]] == walk


@pytest.mark.parametrize("p", [0.2, 0.4])
@pytest.mark.parametrize("n, L, top_level", [(1, 7, 0), (1, 7, 2), (2, 4, 0), (2, 4, 1)])
def test_anchor_owners_own_pairs_below_deepest_are_the_unique_fired_columns(n, L, top_level, p):
    # Below the deepest anchor level a cube has its own pair only where the
    # criterion fired at it.  Those columns, taken from a mask over the
    # level's columns, are np.unique of the fired columns: under one anchor
    # (the propagation of run_stopping) and under every anchor down to a
    # middle level, where one cube can fire against several owners.
    tree = CubeTree(n, L)
    top = tree.index(Cube(top_level, (1,) * n if top_level else (0,) * n))
    box = tree.box(top)
    crit, calls = bernoulli_criterion(p, 7), []

    def fires_many(tree, s, r):
        fired = crit.fires_many(tree, s, r)
        calls.append(r[fired])
        return fired

    repeated = False
    for deepest in (top_level, (top_level + L) // 2):
        calls.clear()
        chains = anchor_owners(tree, StoppingCriterion(crit.name, fires_many), top, deepest)
        for k in range(deepest + 1, L + 1):
            cubes = box[tree.level[box] == k]
            col = np.full(tree.size, -1)
            col[cubes] = np.arange(len(cubes))
            fired = col[calls[k - top_level - 1]]
            own, column = chains.owner[k - top_level], chains.column[k - top_level]
            assert np.array_equal(column[own == cubes[column]], np.unique(fired))
            repeated |= len(np.unique(fired)) < len(fired)
    assert repeated
