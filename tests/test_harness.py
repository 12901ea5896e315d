import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import harness, weights
from dwlab.grid import MOMENTS, CellValueError, Grid, WeightField, read_weight_field, write_weight_field
from dwlab.harness import GENERATOR_KINDS, WeightGenerator, _sym_expm, generate, inclusion_search
from dwlab.weights import class_report

from conftest import (
    TEST_KEYS,
    b2_constants,
    dyadic_ratios,
    full_kernel,
    loop_propose,
    oracle_grid_key,
    oracle_sym_screen,
    per_moment_sym_screen,
)


def test_constant_kind():
    f = generate(WeightGenerator("constant", amplitude=0.0), 1, 2, 3)
    assert np.allclose(f.values, np.eye(2))
    assert np.all(f.grid.mu == 1.0)
    mat = ((2.0, 0.5), (0.5, 1.0))
    f = generate(WeightGenerator("constant", matrix=mat), 1, 2, 2)
    assert np.allclose(f.values[0], mat)


def test_all_kinds_build_and_are_deterministic():
    for kind in GENERATOR_KINDS:
        gen = WeightGenerator(kind, amplitude=0.4, correlation=0.6, seed=31)
        f1 = generate(gen, 2, 2, 2)
        f2 = generate(gen, 2, 2, 2)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(f1.grid.mu, f2.grid.mu)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown generator"):
        WeightGenerator("bogus")


def test_field_file_determinism(tmp_path):
    gen = WeightGenerator("log-gaussian", amplitude=0.5, seed=12, mu_amplitude=0.2)
    p1, p2 = tmp_path / "a.wf", tmp_path / "b.wf"
    write_weight_field(p1, generate(gen, 1, 2, 4))
    write_weight_field(p2, generate(gen, 1, 2, 4))
    assert p1.read_bytes() == p2.read_bytes()


def test_diagonal_kind_reduces_to_scalar_constants():
    f = generate(WeightGenerator("diagonal-scalar-products", amplitude=0.5, seed=9), 1, 2, 3)
    _, b2m, _, _ = b2_constants(f, shifts=1, directions=0)
    per_coord = []
    for i in range(2):
        w = f.values[..., i, i].reshape(-1, 1, 1)
        per_coord.append(b2_constants(WeightField(f.grid, w), shifts=1, directions=0)[1])
    assert abs(b2m - max(per_coord)) < 1e-12


def test_doubling_cap_retry_exhaustion():
    gen = WeightGenerator("log-gaussian", amplitude=0.3, seed=4, mu_amplitude=2.5)
    with pytest.raises(RuntimeError, match="doubling cap"):
        generate(gen, 1, 2, 4, doubling_cap=2.1, retries=2)


def test_inclusion_search_guards():
    with pytest.raises(ValueError, match="N >= 2"):
        inclusion_search(1, 1, 3, 2.0)
    for cap in (0.9, 1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="b2_cap"):
            inclusion_search(1, 2, 3, cap)
    with pytest.raises(ValueError, match="budget"):
        inclusion_search(1, 2, 3, 2.0, budget=-5)


def test_inclusion_search_budget_zero():
    res = inclusion_search(1, 2, 2, b2_cap=2.0, budget=0, seed=7)
    assert res.report.b2_iv <= 2.0 + 1e-9
    assert res.trail and res.trail[0]["step"] == 0


def test_inclusion_search_improves_and_revalidates(tmp_path):
    res = inclusion_search(1, 2, 2, b2_cap=2.5, budget=120, seed=1)
    assert res.report.b2_iv <= 2.5 + 1e-9
    assert res.report.ainf_ii >= 1.0
    # the emitted field file reproduces the reported constants
    path = tmp_path / "best.wf"
    write_weight_field(path, res.field)
    back = read_weight_field(path)
    rep2 = class_report(back)
    for key in ("b2_ii", "b2_iv", "ainf_ii", "thewest"):
        assert abs(getattr(rep2, key) - getattr(res.report, key)) <= 1e-10 * max(
            1.0, getattr(res.report, key)
        )


def _box_path_screen(field):
    """The dyadic screen through the per-box kernel: the exact slow path."""
    best_b2 = best_ainf = 1.0
    for batch in field.grid.box_batches(0):
        r = weights.ratio_kernel(weights.box_averages(field, batch, MOMENTS), weights.RATIO_KEYS)
        best_b2 = max(best_b2, float(r["b2_iv"].max()))
        best_ainf = max(best_ainf, float(r["ainf_ii"].max()))
    return best_b2, best_ainf


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _random_screen_input(seed, n, N, L, spread=0.5):
    """A log-matrix field ``sym`` of symmetric Gaussian cells and a grid with a
    log-normal density."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2**L,) * n + (N, N)) * spread
    grid = Grid(n, L, np.exp(rng.standard_normal((2**L,) * n) * 0.5))
    return grid, (g + np.swapaxes(g, -1, -2)) / 2.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    N=st.integers(2, 4),
    L=st.integers(0, 4),
)
def test_tree_screen_matches_box_path(seed, n, N, L):
    grid, sym = _random_screen_input(seed, n, N, L)
    w = WeightField(grid, _sym_expm(sym))
    got, want = harness._dyadic_constants(grid, sym), _box_path_screen(w)
    assert all(_close(x, y) for x, y in zip(got, want)), (got, want)
    # Every per-cube ratio of the tree source against the band path at shift 0,
    # whose batches list the dyadic cubes level by level in C order, put in
    # tree order by the oracle's grid key.
    tree = dyadic_ratios(w)
    band = [
        full_kernel(weights.box_averages(w, batch, MOMENTS), TEST_KEYS) for batch in w.grid.box_batches(0)
    ]
    key_order = oracle_grid_key(n, L)
    assert sorted(tree) == sorted(band[0]) and "chain" in tree
    for key, values in tree.items():
        if key == "chain":
            pairs = zip(values, (np.concatenate(t)[key_order] for t in zip(*(r[key] for r in band))))
        else:
            pairs = [(values, np.concatenate([r[key] for r in band])[key_order])]
        for a, b in pairs:
            # identity_residual is already relative to thewest
            scale = 1.0 if key == "identity_residual" else np.maximum(abs(a), abs(b))
            assert np.all(np.abs(a - b) <= 1e-12 * scale), key


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    N=st.integers(2, 4),
    L=st.integers(0, 4),
)
def test_screen_matches_oracle_trees(seed, n, N, L):
    # W, W^2 and log det W summed as the channels of one cell array, and one
    # LU call over both powers, give the oracle's one tree and per-moment LU
    # calls, to the bit.
    grid, sym = _random_screen_input(seed, n, N, L, spread=1.0)
    assert harness._dyadic_constants(grid, sym) == oracle_sym_screen(grid, sym)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 4), L=st.integers(0, 5))
def test_screen_at_n1_matches_per_moment_trees(seed, N, L):
    # At n = 1 each tree level adds two siblings, so log det W summed beside
    # the powers has the bits of its own tree: the inclusion-search outputs at
    # n = 1 do not depend on the screen's channel layout.
    grid, sym = _random_screen_input(seed, 1, N, L, spread=1.0)
    assert harness._dyadic_constants(grid, sym) == per_moment_sym_screen(grid, sym)


def test_screen_makes_one_tree_pass(monkeypatch):
    calls = {"integrals": 0, "eigh": 0, "det": 0}
    integrals, eigh, det = Grid.integrals, np.linalg.eigh, np.linalg.det

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(Grid, "integrals", counting("integrals", integrals))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
    monkeypatch.setattr(np.linalg, "det", counting("det", det))
    for n, N, L in ((1, 2, 4), (2, 3, 3), (3, 2, 2)):
        grid, sym = _random_screen_input(n + N + L, n, N, L)
        calls.update(integrals=0, eigh=0, det=0)
        harness._dyadic_constants(grid, sym)
        assert calls == {"integrals": 1, "eigh": 1, "det": 1}, (n, N, L)


def test_screen_refuses_cells_as_weight_field_does():
    grid = Grid(2, 1)
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    overflow = rot @ np.diag([800.0, 0.0]) @ rot.T
    spread = rot @ np.diag([15.5, -15.5]) @ rot.T
    cases = [
        ("is not finite", {(1, 0): overflow}),
        ("is not positive definite", {(0, 1): spread}),
        # the finite check comes first, as in WeightField
        ("is not finite", {(0, 1): spread, (1, 1): overflow}),
    ]
    for what, cells in cases:
        sym = np.zeros((2, 2, 2, 2))
        for cell, value in cells.items():
            sym[cell] = value
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CellValueError) as want:
                WeightField(grid, _sym_expm(sym))
            with pytest.raises(CellValueError) as got:
                harness._dyadic_constants(grid, sym)
        assert str(got.value) == str(want.value) and got.value.index == want.value.index
        assert str(got.value).endswith(what), str(got.value)


def test_tree_screen_skips_box_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-box path called")

    grid, sym = _random_screen_input(5, 2, 2, 3)
    monkeypatch.setattr(weights, "box_averages", refuse)
    monkeypatch.setattr(Grid, "box_batches", refuse)
    monkeypatch.setattr(Grid, "box_sums", refuse)
    monkeypatch.setattr(WeightField, "__init__", refuse)
    b2, ainf = harness._dyadic_constants(grid, sym)
    assert b2 > 1.0 and ainf > 1.0


def test_inclusion_search_matches_box_path_screen(monkeypatch):
    # cap 2 binds at seed 2: the anneal projects five times and shrinks at the end
    fast = inclusion_search(1, 2, 3, b2_cap=2.0, budget=60, seed=2)
    monkeypatch.setattr(
        harness, "_dyadic_constants", lambda grid, sym: _box_path_screen(WeightField(grid, _sym_expm(sym)))
    )
    slow = inclusion_search(1, 2, 3, b2_cap=2.0, budget=60, seed=2)
    assert [t["step"] for t in fast.trail] == [t["step"] for t in slow.trail]
    assert np.array_equal(fast.field.values, slow.field.values)
    assert fast.report == slow.report
    assert _close(fast.objective, slow.objective)
    for a, b in zip(fast.trail, slow.trail):
        assert all(_close(a[k], b[k]) for k in ("score", "b2_iv", "ainf_ii"))


def test_inclusion_search_matches_oracle_trees(monkeypatch):
    # n=2 N=2 L=3, cap 2 binds at seed 1 (eleven projections): the screen's
    # one tree pass and one LU call give the run of the oracle's one tree
    # with one LU call per moment, to the bit.
    fast = inclusion_search(2, 2, 3, b2_cap=2.0, budget=40, seed=1)
    monkeypatch.setattr(harness, "_dyadic_constants", oracle_sym_screen)
    slow = inclusion_search(2, 2, 3, b2_cap=2.0, budget=40, seed=1)
    assert fast.as_dict() == slow.as_dict()
    assert np.array_equal(fast.field.values, slow.field.values)


def test_shrink_to_cap_returns_the_accepted_screen():
    sym = np.random.default_rng(7).standard_normal((4, 2, 2))
    mean = sym.mean(axis=0)
    calls = []

    def screen(s):
        calls.append(s)
        return (float(np.abs(s - mean).max()), len(calls))

    cap = 0.3 * screen(sym)[0]
    calls.clear()
    shrunk, kept = harness._shrink_to_cap(sym, screen, cap)
    assert len(calls) == 12
    assert kept[0] <= cap and np.array_equal(calls[kept[1] - 1], shrunk)

    shrunk, kept = harness._shrink_to_cap(sym, lambda s: (np.inf,), cap)
    assert kept is None and np.array_equal(shrunk, np.broadcast_to(mean, sym.shape))


def test_inclusion_search_screens_each_field_once(monkeypatch):
    seen = []
    screen = harness._dyadic_constants

    def counting(grid, sym):
        seen.append(sym.tobytes())
        return screen(grid, sym)

    monkeypatch.setattr(harness, "_dyadic_constants", counting)
    # cap 2 binds at seed 2: the anneal projects five times, so the initial
    # field and 60 steps take one screen each and every projection twelve
    inclusion_search(1, 2, 3, b2_cap=2.0, budget=60, seed=2)
    assert len(seen) == 61 + 5 * 12
    assert len(set(seen)) == len(seen)


def test_inclusion_search_builds_fields_only_past_the_anneal(monkeypatch):
    counts = {"eigh": 0, "fields": 0}
    eigh, init, screen = np.linalg.eigh, WeightField.__init__, harness._dyadic_constants
    per_screen = []

    def counting_eigh(*args, **kwargs):
        counts["eigh"] += 1
        return eigh(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["fields"] += 1
        init(self, *args, **kwargs)

    def counting_screen(grid, sym):
        before = dict(counts)
        out = screen(grid, sym)
        per_screen.append((counts["eigh"] - before["eigh"], counts["fields"] - before["fields"]))
        return out

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(WeightField, "__init__", counting_init)
    monkeypatch.setattr(harness, "_dyadic_constants", counting_screen)
    # cap 2 binds at seed 2: 61 + 5 * 12 screens of one eigh and no field each;
    # then one field for the first full-family b2 scan, twelve for the final
    # shrink's bisection and one for the report.
    inclusion_search(1, 2, 3, b2_cap=2.0, budget=60, seed=2)
    assert per_screen == [(1, 0)] * (61 + 5 * 12)
    assert counts["fields"] == 1 + 12 + 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cells=st.integers(4, 512),
    N=st.integers(2, 3),
    temp=st.floats(1e-3, 1.0),
)
def test_propose_matches_the_per_cell_loop(seed, cells, N, temp):
    sym = np.random.default_rng(seed + 1).standard_normal((cells, N, N))
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(harness._propose(sym, a, temp), loop_propose(sym, b, temp))
    # and both leave the generator at the same draw
    assert a.random() == b.random()


def test_propose_adds_a_repeated_cell_once_per_draw():
    sym = np.zeros((8, 8, 3, 3))
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    touched = np.random.default_rng(11).integers(0, 64, size=8)
    assert len(set(touched.tolist())) < len(touched)
    assert np.array_equal(harness._propose(sym, a, 0.5), loop_propose(sym, b, 0.5))
