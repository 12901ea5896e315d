import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab.grid import Cube, Grid, WeightField, root_cube
from dwlab.stopping import (
    StoppingCriterion,
    bernoulli_criterion,
    box_cubes,
    corona_stop,
    iterated_sawtooth,
    kato_family_stop,
    kato_stop,
    loewner_geq,
    martingale_square_check,
    packing_constant,
    run_stopping,
    volberg_stop,
)
from dwlab.tb import canonical_family

from conftest import random_weight_field

NEVER = StoppingCriterion("never", lambda s, r: False)
ALWAYS = StoppingCriterion("always", lambda s, r: True)


def ones_field(L, n=1, N=1):
    side = 2**L
    vals = np.broadcast_to(np.eye(N), (side,) * n + (N, N)).copy()
    return WeightField(Grid(n, L), vals)


def test_never_fires():
    res = run_stopping(root_cube(1), NEVER, 2)
    assert res.all_cubes == [root_cube(1)]
    assert len(res.sawtooth(root_cube(1))) == 7
    assert packing_constant(res, Grid(1, 2)) == 1.0
    assert res.partition_residual() == 0.0


def test_always_fires_full_subdivision():
    res = run_stopping(root_cube(1), ALWAYS, 2)
    assert [len(g) for g in res.generations] == [1, 2, 4]
    assert packing_constant(res, Grid(1, 2)) == 3.0  # depth d=2 gives d+1
    assert all(res.sawtooth(s) == [s] for s in res.all_cubes)
    assert res.partition_residual() == 0.0


def test_hand_tree_left_half():
    target = Cube(1, (0,))
    crit = StoppingCriterion("left", lambda s, r: r == target)
    res = run_stopping(root_cube(1), crit, 2)
    assert list(res.first_gen[root_cube(1)]) == [target]
    got = {c.descriptor() for c in res.sawtooth(root_cube(1))}
    assert got == {
        "level=0 coords=0",
        "level=1 coords=1",
        "level=2 coords=2",
        "level=2 coords=3",
    }
    assert res.partition_residual() == 0.0
    assert packing_constant(res, Grid(1, 2)) == 1.5


def test_parent_map_invariant(rng):
    for seed in range(20):
        crit = bernoulli_criterion(0.4, seed)
        res = run_stopping(root_cube(1), crit, 4)
        stops = set(res.all_cubes)
        for r, parent in res.parent_map.items():
            assert parent.contains(r) and parent != r
            # no stopping cube strictly between
            walk = r
            while True:
                walk = walk.parent()
                if walk == parent:
                    break
                assert walk not in stops


def test_partition_residual_weighted(rng):
    g = Grid(1, 4, rng.uniform(0.3, 3.0, 16))
    for seed in range(10):
        res = run_stopping(root_cube(1), bernoulli_criterion(0.3, seed), 4)
        assert res.partition_residual() <= 1e-12
        assert res.partition_residual(values=g.measure) <= 1e-9


def test_geometric_packing_bound(rng):
    # When every root keeps first-generation mass ratio <= c < 1, the full
    # packing is at most 1/(1-c).
    g = Grid(1, 5, rng.uniform(0.5, 2.0, 32))
    for seed in range(12):
        res = run_stopping(root_cube(1), bernoulli_criterion(0.25, seed + 100), 5)
        ratios = []
        for s in res.all_cubes:
            mass = sum(g.measure(r) for r in res.first_gen.get(s, ()))
            ratios.append(mass / g.measure(s))
        c = max(ratios)
        if c < 1.0:
            assert packing_constant(res, g) <= 1.0 / (1.0 - c) + 1e-9


def test_iterated_trivial_and_single():
    dec = iterated_sawtooth(root_cube(1), [NEVER, NEVER], 2)
    assert len(dec.pieces) == 1
    assert dec.partition_residual(2) == 0.0
    # k=1 reduces to plain sawtooths
    crit = bernoulli_criterion(0.5, 3)
    dec = iterated_sawtooth(root_cube(1), [crit], 3)
    res = run_stopping(root_cube(1), crit, 3)
    expected = {(s,): sorted(res.sawtooth(s)) for s in res.all_cubes}
    got = {k: sorted(v) for k, v in dec.pieces.items()}
    assert got == {k: v for k, v in expected.items() if v}


def test_iterated_always_singletons():
    dec = iterated_sawtooth(root_cube(1), [ALWAYS, ALWAYS], 2)
    assert all(len(v) == 1 for v in dec.pieces.values())
    assert sum(len(v) for v in dec.pieces.values()) == 7
    assert dec.partition_residual(2) == 0.0


def test_iterated_two_random_criteria(rng):
    g = Grid(1, 4, rng.uniform(0.4, 2.5, 16))
    for seed in range(8):
        crits = [bernoulli_criterion(0.35, seed), bernoulli_criterion(0.35, seed + 77)]
        dec = iterated_sawtooth(root_cube(1), crits, 4)
        assert dec.partition_residual(4) <= 1e-12
        assert dec.partition_residual(4, values=g.measure) <= 1e-9


def _owner_walk(res, cube):
    """The stopping cube of ``res`` whose sawtooth holds ``cube``."""
    s = res.root
    while True:
        selected = set(res.first_gen.get(s, ()))
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
    # Oracle: full stopping trees per (criterion, root), and per cube the
    # owner walk of each decomposition rooted at the previous owner.
    L = min(L, 3) if n == 2 else L
    root = Cube(min(root_level, L), (0,) * n)
    crits = [bernoulli_criterion(p, seed + 1000 * i) for i in range(k)]
    trees = {}
    expected = {}
    for cube in box_cubes(root, L):
        chain, anchor = [], root
        for i, crit in enumerate(crits):
            if (i, anchor) not in trees:
                trees[i, anchor] = run_stopping(anchor, crit, L)
            anchor = _owner_walk(trees[i, anchor], cube)
            chain.append(anchor)
        expected.setdefault(tuple(chain), []).append(cube)
    got = iterated_sawtooth(root, crits, L).pieces
    assert got == expected  # the same pieces, with their cubes in the same order


def test_volberg_examples():
    const = ones_field(2, N=2)
    res, ratio = volberg_stop(root_cube(1), const, 2.0)
    assert ratio == 0.0 and res.all_cubes == [root_cube(1)]

    eps = 0.05
    w = WeightField(Grid(1, 1), np.array([1.0, eps]).reshape(2, 1, 1))
    w_q = (1 + eps) / 2
    res, ratio = volberg_stop(root_cube(1), w, 4.0)
    assert w_q / eps >= 4.0
    assert [c.descriptor() for c in res.first_gen[root_cube(1)]] == ["level=1 coords=1"]
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
    assert ratio == 0.0 and res.all_cubes == [root_cube(1)]

    # a child with huge average is selected by the energy clause
    b_big = b.copy()
    b_big[0] = [50.0, 0.0]
    res, ratio = kato_stop(root_cube(1), w, b_big, v0, 0.3)
    selected = res.first_gen[root_cube(1)]
    assert any(c.contains(Cube(2, (0,))) or c == Cube(2, (0,)) for c in selected)

    # orthogonal mean triggers the projection clause at the first child
    b_orth = np.broadcast_to([0.0, 1.0], (4, 2)).copy()
    res, ratio = kato_stop(root_cube(1), w, b_orth, v0, 0.3)
    assert ratio == 1.0  # both children selected immediately


def test_kato_family_canonical_contraction(rng):
    for i in range(15):
        w = random_weight_field(rng, N=2, L=4, spread=0.5)
        v0 = rng.standard_normal(2)
        v0 /= np.linalg.norm(v0)
        res, ratio = kato_family_stop(root_cube(1), w, canonical_family(w), v0, 0.1)
        assert ratio <= 0.99
        assert res.partition_residual() <= 1e-12


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
    assert res.all_cubes == [root_cube(1)] and pack == 1.0

    # Push the ratio past (1+eps3)/(1-eps3): both children fire, and inside
    # each half the field is constant, so the tree stops there.
    c = 1.3 * (1 + eps3) / (1 - eps3)
    w = WeightField(Grid(1, 2), np.array([1.0, 1.0, c, c]).reshape(4, 1, 1))
    res, pack = corona_stop(root_cube(1), w, eps3)
    assert {x.descriptor() for x in res.first_gen[root_cube(1)]} == {
        "level=1 coords=0",
        "level=1 coords=1",
    }
    assert len(res.generations) == 2 and pack == 2.0


def test_corona_random_fields(rng):
    for _ in range(10):
        w = random_weight_field(rng, N=2, L=4, spread=0.6, mu_spread=0.3)
        res, pack = corona_stop(root_cube(1), w, 0.15)
        assert 1.0 <= pack <= 5.0 + 1e-12  # depth bound: L+1 generations
        assert res.partition_residual() <= 1e-12


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
        assert len(res.all_cubes) > 1
        for s in res.all_cubes:
            w_s = avg(w, s)
            for r in res.sawtooth(s):
                dev = np.linalg.solve(w_s, avg(w, r)) - np.eye(2)
                assert np.linalg.norm(dev, 2) <= eps3 * (1.0 + 1e-12), (s, r)


def test_martingale_two_cell_equality():
    w = WeightField(Grid(1, 1), np.array([1.0, 3.0]).reshape(2, 1, 1))
    res = run_stopping(root_cube(1), ALWAYS, 1)
    lhs, rhs, ok = martingale_square_check(root_cube(1), w, res)
    assert ok
    assert abs(lhs[0, 0] - 1.0) < 1e-14
    assert abs(rhs[0, 0] - 1.0) < 1e-14

    const = ones_field(1)
    lhs, rhs, ok = martingale_square_check(root_cube(1), const, run_stopping(root_cube(1), ALWAYS, 1))
    assert ok and np.allclose(lhs, 0) and np.allclose(rhs, 0)


def test_martingale_random_trees(rng):
    for seed in range(60):
        N = int(rng.integers(1, 4))
        w = random_weight_field(rng, N=N, L=3, spread=0.9, mu_spread=0.4)
        res = run_stopping(root_cube(1), bernoulli_criterion(0.45, seed), 3)
        lhs, rhs, ok = martingale_square_check(root_cube(1), w, res)
        assert ok
        assert loewner_geq(rhs, lhs, 1e-9 * max(np.max(np.abs(rhs)), 1e-300))


def test_box_cubes_count():
    assert len(box_cubes(root_cube(1), 3)) == 15
    assert len(box_cubes(Cube(1, (0, 0)), 2)) == 5  # 1 + 4 children at level 2
