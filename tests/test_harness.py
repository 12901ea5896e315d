import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import harness, weights
from dwlab.grid import CellValueError, Grid, WeightField, read_weight_field, write_weight_field
from dwlab.harness import GENERATOR_KINDS, WeightGenerator, _sym_expm, generate, inclusion_search
from dwlab.weights import class_report

from conftest import (
    TEST_KEYS,
    assert_decides_in_order,
    b2_constants,
    batch_averages,
    dyadic_ratios,
    full_kernel,
    loop_propose,
    oracle_grid_key,
    oracle_shrink_to_cap,
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
    for _, avg in batch_averages(field, 0):
        r = weights.ratio_kernel(avg, weights.RATIO_KEYS)
        best_b2 = max(best_b2, float(r["b2_iv"].max()))
        best_ainf = max(best_ainf, float(r["ainf_ii"].max()))
    return best_b2, best_ainf


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _random_screen_input(seed, n, N, L, spread=0.5, k=None):
    """A log-matrix field ``sym`` of symmetric Gaussian cells and a grid with a
    log-normal density; given ``k``, a stack of k such fields on the axis
    after the cell axes."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2**L,) * n + (() if k is None else (k,)) + (N, N)) * spread
    grid = Grid(n, L, np.exp(rng.standard_normal((2**L,) * n) * 0.5))
    return grid, (g + np.swapaxes(g, -1, -2)) / 2.0


def _screen(grid, sym):
    """The screen pair of the one field ``sym``, as a stack of one."""
    (pair,) = harness._dyadic_constants(grid, sym[..., None, :, :])
    return pair


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
    got, want = _screen(grid, sym), _box_path_screen(w)
    assert all(_close(x, y) for x, y in zip(got, want)), (got, want)
    # Every per-cube ratio of the tree source against the band path at shift 0,
    # whose batches list the dyadic cubes level by level in C order, put in
    # tree order by the oracle's grid key.
    tree = dyadic_ratios(w)
    band = [full_kernel(avg, TEST_KEYS) for _, avg in batch_averages(w, 0)]
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
    assert _screen(grid, sym) == oracle_sym_screen(grid, sym)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    N=st.integers(2, 4),
    L=st.integers(0, 4),
    k=st.integers(1, 8),
)
def test_stacked_screen_matches_per_field_screens(seed, n, N, L, k):
    # k fields stacked after the cell axes take one tree pass and one kernel
    # call, and each pair keeps the bits of its field's own screen.
    grid, stack = _random_screen_input(seed, n, N, L, spread=1.0, k=k)
    got = harness._dyadic_constants(grid, stack)
    assert got == [oracle_sym_screen(grid, stack[..., j, :, :]) for j in range(k)]
    assert got == [_screen(grid, np.ascontiguousarray(stack[..., j, :, :])) for j in range(k)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 4), L=st.integers(0, 5))
def test_screen_at_n1_matches_per_moment_trees(seed, N, L):
    # At n = 1 each tree level adds two siblings, so log det W summed beside
    # the powers has the bits of its own tree: the inclusion-search outputs at
    # n = 1 do not depend on the screen's channel layout.
    grid, sym = _random_screen_input(seed, 1, N, L, spread=1.0)
    assert _screen(grid, sym) == per_moment_sym_screen(grid, sym)


def test_screen_makes_one_tree_pass(monkeypatch):
    once = {"integrals": 1, "mu_averages": 1, "eigh": 1, "einsum": 1, "det": 1, "ratio_kernel": 1}
    calls = dict.fromkeys(once, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for owner, name in ((Grid, "integrals"), (Grid, "mu_averages"), (np.linalg, "eigh"), (np, "einsum"), (np.linalg, "det")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    monkeypatch.setattr(harness, "ratio_kernel", counting("ratio_kernel", harness.ratio_kernel))
    for n, N, L in ((1, 2, 4), (2, 3, 3), (3, 2, 2)):
        for k in (1, 3, 8):
            grid, stack = _random_screen_input(n + N + L, n, N, L, k=k)
            calls.update(dict.fromkeys(once, 0))
            assert len(harness._dyadic_constants(grid, stack)) == k
            assert calls == once, (n, N, L, k)


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
                _screen(grid, sym)
            # First in a stack, the field ends it with its own error ...
            with pytest.raises(CellValueError) as first:
                harness._dyadic_constants(grid, np.stack([sym, np.zeros_like(sym)], axis=-3))
            # ... and past the first, it ends the batch: the fields before it
            # are screened, and nothing is raised.
            good = np.random.default_rng(3).standard_normal(sym.shape) * 0.2
            good = (good + np.swapaxes(good, -1, -2)) / 2.0
            stack = np.stack([good, np.zeros_like(sym), sym, good], axis=-3)
            assert harness._dyadic_constants(grid, stack) == [_screen(grid, good), _screen(grid, np.zeros_like(sym))]
        for error in (got, first):
            assert str(error.value) == str(want.value) and error.value.index == want.value.index
            assert str(error.value).endswith(what), str(error.value)


def test_tree_screen_skips_box_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-box path called")

    grid, sym = _random_screen_input(5, 2, 2, 3)
    monkeypatch.setattr(weights, "box_averages", refuse)
    monkeypatch.setattr(Grid, "box_batches", refuse)
    monkeypatch.setattr(Grid, "box_sums", refuse)
    monkeypatch.setattr(WeightField, "__init__", refuse)
    b2, ainf = _screen(grid, sym)
    assert b2 > 1.0 and ainf > 1.0


def _per_field(screen):
    """A stacked screen that scores each field of the stack with ``screen``."""
    return lambda grid, stack: [screen(grid, stack[..., j, :, :]) for j in range(stack.shape[-3])]


def test_inclusion_search_matches_box_path_screen(monkeypatch):
    # cap 2 binds at seed 2: the anneal projects five times and shrinks at the end
    fast = inclusion_search(1, 2, 3, b2_cap=2.0, budget=60, seed=2)
    # The box path scores every field of every stack, the shrink's guesses too.
    monkeypatch.setattr(harness, "_dyadic_constants", _per_field(lambda grid, sym: _box_path_screen(WeightField(grid, _sym_expm(sym)))))
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
    monkeypatch.setattr(harness, "_dyadic_constants", _per_field(oracle_sym_screen))
    slow = inclusion_search(2, 2, 3, b2_cap=2.0, budget=40, seed=1)
    assert fast.as_dict() == slow.as_dict()
    assert np.array_equal(fast.field.values, slow.field.values)


def _recording(screens):
    """``screens`` that records in ``.stacks`` each stack it is given, cut to
    the fields whose screens it returns."""

    def recorded(stack):
        out = screens(stack)
        recorded.stacks.append(stack[..., : len(out), :, :].copy())
        return out

    recorded.stacks = []
    return recorded


def _assert_shrinks_as_the_oracle(sym, screens, cap, top, shrink=None):
    """Run ``shrink`` (default ``harness._shrink_to_cap``) and the sequential
    oracle on ``screens`` and assert the same field, the same ``kept`` and the
    same decided fields in order; returns the recorded stacks."""
    sequential = []

    def screen(field):
        sequential.append(field)
        return screens(field[..., None, :, :])[0]

    want = oracle_shrink_to_cap(sym, screen, cap)
    recorded = _recording(screens)
    got = (shrink or harness._shrink_to_cap)(sym, recorded, cap, top)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert len(sequential) == 12
    assert_decides_in_order(recorded.stacks, sequential)
    return recorded.stacks


def test_shrink_to_cap_returns_the_accepted_screen():
    sym = np.random.default_rng(7).standard_normal((4, 2, 2))
    mean = sym.mean(axis=0)
    fields = []

    def screens(stack):
        out = []
        for j in range(stack.shape[-3]):
            fields.append(stack[..., j, :, :].copy())
            out.append((float(np.abs(fields[-1] - mean).max()), len(fields)))
        return out

    top = screens(sym[..., None, :, :])[0][0]
    cap = 0.3 * top
    fields.clear()
    shrunk, kept = harness._shrink_to_cap(sym, screens, cap, top)
    # At least the twelve decided fields, each screened once.
    assert len(fields) >= 12 and len({f.tobytes() for f in fields}) == len(fields)
    assert kept[0] <= cap and np.array_equal(fields[kept[1] - 1], shrunk)
    want = oracle_shrink_to_cap(sym, lambda f: screens(f[..., None, :, :])[0], cap)
    assert np.array_equal(shrunk, want[0]) and kept[0] == want[1][0]

    shrunk, kept = harness._shrink_to_cap(sym, lambda stack: [(np.inf,)] * stack.shape[-3], cap, top)
    assert kept is None and np.array_equal(shrunk, np.broadcast_to(mean, sym.shape))


def test_shrink_matches_the_sequential_bisection_on_the_benchmark(monkeypatch):
    # The inclusion-anneal benchmark's three levels: every shrink, of the
    # anneal's projections with the real stacked screen and of the final
    # full-family one, decides as the sequential run.
    shrinks, shrink, screen, calls = [], harness._shrink_to_cap, harness._dyadic_constants, []

    def checked(sym, screens, cap, top):
        shrinks.append(_assert_shrinks_as_the_oracle(sym, screens, cap, top, shrink))
        return shrink(sym, screens, cap, top)

    def counting(grid, stack):
        calls.append(stack.shape[-3])
        return screen(grid, stack)

    monkeypatch.setattr(harness, "_shrink_to_cap", checked)
    for level in (2, 3, 4):
        inclusion_search(1, 2, level, b2_cap=4.0, budget=200, seed=3 + level)
    assert len(shrinks) > 30
    # Counted alone: 603 candidates and 30 projections of 12 steps, 963 screens
    # one field at a time, now take at most 710 calls.
    monkeypatch.setattr(harness, "_shrink_to_cap", shrink)
    monkeypatch.setattr(harness, "_dyadic_constants", counting)
    for level in (2, 3, 4):
        inclusion_search(1, 2, level, b2_cap=4.0, budget=200, seed=3 + level)
    assert calls.count(1) >= 603 and len(calls) <= 710


def test_shrink_matches_the_sequential_bisection_against_every_guess():
    # A non-monotone screen of the scale that contradicts the round's first
    # guess at every step: each round decides on one field only.
    sym = np.random.default_rng(11).standard_normal((8, 2, 2))
    sym = (sym + np.swapaxes(sym, -1, -2)) / 2.0
    mean = sym.mean(axis=0)
    delta = sym - mean
    at = np.unravel_index(np.argmax(np.abs(delta)), delta.shape)
    cap, top = 3.0, 7.5

    def value(s, accept):
        wiggle = 0.5 + 0.45 * np.sin(977.0 * s)
        return 1.0 + (cap - 1.0) * wiggle if accept else cap * (1.0 + 3.0 * wiggle)

    def b2(s):
        # Replay the bisection down to s, whose binary digits are the
        # decisions before it, contradicting the linear guess at each step.
        lo, hi, lo_b2, hi_b2 = 0.0, 1.0, 1.0, top
        while True:
            mid = (lo + hi) / 2.0
            guess = lo + (cap - lo_b2) / (hi_b2 - lo_b2) * (hi - lo)
            accept = not mid <= guess
            if s == mid or (s > mid) != accept:
                # s itself, or a guess off the path: a value either way
                return value(s, accept)
            lo, hi, lo_b2, hi_b2 = (mid, hi, value(mid, True), hi_b2) if accept else (lo, mid, lo_b2, value(mid, False))

    seen = {}

    def screens(stack):
        scales = np.round((stack[at[:-2] + (slice(None),) + at[-2:]] - mean[at[-2:]]) / delta[at] * 4096.0) / 4096.0
        seen.update((float(s), b2(float(s))) for s in scales)
        return [(seen[float(s)],) for s in scales]

    stacks = _assert_shrinks_as_the_oracle(sym, screens, cap, top)
    assert len(stacks) == 12
    # b2 falls somewhere as the scale grows.
    values = [seen[s] for s in sorted(seen)]
    assert any(b < a for a, b in zip(values, values[1:]))


def test_shrink_rounds_hold_one_field_when_one_fills_the_budget(monkeypatch):
    grid, sym = _random_screen_input(4, 2, 2, 2, spread=1.2)
    top = _screen(grid, sym)[0]
    monkeypatch.setattr(harness, "_BATCH_FLOATS", sym[..., 0, 0].size * (2 * 2 * 2 + 1))
    stacks = _assert_shrinks_as_the_oracle(sym, lambda stack: harness._dyadic_constants(grid, stack), 0.5 + top / 2, top)
    assert [s.shape[-3] for s in stacks] == [1] * 12


def _singular_beyond(scale):
    """A log-matrix field on n=1 L=2 whose two spread cells make the field
    ``mean + s (sym - mean)`` singular for s past about ``scale``."""
    sym = np.zeros((4, 2, 2))
    sym[2] = [[0.3, 0.1], [0.1, -0.2]]
    # At scale s the spread cells' log-eigenvalues are near +-15 s / scale,
    # singular once their spread passes log(1e13) = 29.93.
    sym[1] = np.diag([1.0, -1.0]) * 15.0 / scale
    sym[3] = -sym[1]
    return Grid(1, 2), sym


def test_shrink_ignores_bad_guesses_and_raises_on_a_bad_decision():
    grid, sym = _singular_beyond(0.6)
    guesses = []

    def screens(stack):
        guesses.extend(np.moveaxis(stack, -3, 0))
        return harness._dyadic_constants(grid, stack)

    # b2 rises from 1 past 2.9 at s = 0.1 and 3.9 at s = 1/4.  A cap between
    # them is over at s = 1/2, while a b2 at s = 1 just over the cap guesses
    # the threshold near 1: the first round screens 1/2 and guesses 3/4, 7/8
    # and 15/16 past it, which are singular and never decided on.
    mean = sym.mean(axis=0)
    cap = 3.5
    assert _screen(grid, mean + 0.1 * (sym - mean))[0] < cap < _screen(grid, mean + 0.25 * (sym - mean))[0]
    stacks = _assert_shrinks_as_the_oracle(sym, screens, cap, cap * 1.01)
    screened = [f for stack in stacks for f in np.moveaxis(stack, -3, 0)]
    bad = [f for f in guesses if not _cells_ok(f)]
    assert bad and not any(np.array_equal(b, f) for b in bad for f in screened)

    # Under a cap that every regular field keeps, the bisection decides on a
    # singular field and both runs raise its error.
    cap = 1e6
    with pytest.raises(CellValueError) as want:
        oracle_shrink_to_cap(sym, lambda f: _screen(grid, f), cap)
    with pytest.raises(CellValueError) as got:
        harness._shrink_to_cap(sym, screens, cap, 2e6)
    assert str(got.value) == str(want.value) and got.value.index == want.value.index


def _cells_ok(sym):
    """Whether the screen takes every cell of the n=1 L=2 field ``sym``."""
    try:
        _screen(Grid(1, 2), sym)
    except CellValueError:
        return False
    return True


def test_inclusion_search_screens_each_field_once(monkeypatch):
    # cap 2 binds at seed 2: the anneal projects five times, so the initial
    # field and 60 steps take one screen each and every projection decides
    # on twelve fields, as the sequential bisection does.
    sequential, stacks, shrink, screen = [], [], harness._shrink_to_cap, harness._dyadic_constants

    def recording(grid, stack):
        stacks.append(stack.copy())
        return screen(grid, stack)

    def oracle(sym, screens, cap, top):
        return oracle_shrink_to_cap(sym, lambda f: screens(f[..., None, :, :])[0], cap)

    monkeypatch.setattr(harness, "_dyadic_constants", recording)
    monkeypatch.setattr(harness, "_shrink_to_cap", oracle)
    want = inclusion_search(1, 2, 3, b2_cap=2.0, budget=60, seed=2)
    sequential = [s[..., 0, :, :] for s in stacks]
    stacks.clear()
    monkeypatch.setattr(harness, "_shrink_to_cap", shrink)
    got = inclusion_search(1, 2, 3, b2_cap=2.0, budget=60, seed=2)
    assert got.as_dict() == want.as_dict()
    assert len(sequential) == 61 + 5 * 12
    assert_decides_in_order(stacks, sequential)
    fields = [s[..., j, :, :].tobytes() for s in stacks for j in range(s.shape[-3])]
    assert len(set(fields)) == len(fields)
    assert len(stacks) < 61 + 5 * 12


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

    def counting_screen(grid, stack):
        before = dict(counts)
        out = screen(grid, stack)
        per_screen.append((counts["eigh"] - before["eigh"], counts["fields"] - before["fields"]))
        return out

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(WeightField, "__init__", counting_init)
    monkeypatch.setattr(harness, "_dyadic_constants", counting_screen)
    # cap 2 binds at seed 2: 61 single screens and the rounds of five
    # projections, one eigh and no field each; then one field for the first
    # full-family b2 scan, twelve for the final shrink's bisection and one
    # for the report.
    inclusion_search(1, 2, 3, b2_cap=2.0, budget=60, seed=2)
    assert per_screen == [(1, 0)] * len(per_screen) and 61 + 5 <= len(per_screen) < 61 + 5 * 12
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
