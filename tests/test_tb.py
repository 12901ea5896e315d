import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import stopping, tb
from dwlab.cli import main
from dwlab.cones import ConeNet
from dwlab.grid import Cube, CubeTree, Grid, WeightField, root_cube, write_weight_field
from dwlab.harness import WeightGenerator, generate
from dwlab.tb import (
    CanonicalFamily,
    LN2,
    carleson_norm,
    gamma_constant,
    gamma_martingale,
    gamma_random,
    gamma_zero,
    make_gamma,
    tb_run,
    top_directions,
    verify_hypotheses,
)

from conftest import (
    ALWAYS,
    NEVER,
    bernoulli_criterion,
    coarse_anchor_owners,
    cube_average,
    cube_contains,
    cube_measure,
    cube_parent,
    expectation_stack,
    first_generation,
    full_sup_form,
    gamma_value,
    grid_cubes,
    oracle_grid_key,
    owner_levels,
    random_spd_cells,
    random_weight_field,
    svd_norms_sq,
    svd_top_directions,
    weighted_avg,
)


def ones_field(L, n=1, N=1):
    side = 2**L
    return WeightField(Grid(n, L), np.broadcast_to(np.eye(N), (side,) * n + (N, N)).copy())


def box_carleson_integral(gamma, b_values, root, field):
    """Whitney-discretized square integral of gamma applied to E_t b over a box."""
    g = field.grid
    box = g.tree.box(g.tree.index(root))
    ge = np.einsum("...mn,...n->...m", gamma.stack[box], expectation_stack(field, b_values)[box])
    return float(np.sum(np.sum(ge**2, axis=-1) * g.mu_stack[box] * LN2))


def sampled_sup(fam, value, samples, seed):
    """sqrt of the sup over cubes Q and sampled v of value(Q, b_Q^v) / mu(Q).

    Per cube, in ``grid_cubes`` order: the unit vectors, then
    ``max(samples - N, 0)`` normalised Gaussian draws from ``seed``.
    """
    g, N = fam.field.grid, fam.field.N
    cubes = list(grid_cubes(g))
    v = np.random.default_rng(seed).standard_normal((len(cubes), max(samples - N, 0), N))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    dirs = np.concatenate([np.broadcast_to(np.eye(N), (len(cubes), N, N)), v], axis=1)
    worst = 0.0
    for cube, cube_dirs in zip(cubes, dirs):
        for v0 in cube_dirs:
            worst = max(worst, value(cube, fam.b_values(cube, v0)) / cube_measure(g, cube))
    return math.sqrt(worst)


def sampled_c3(fam, samples, seed):
    mu = fam.field.grid.mu * fam.field.grid.cell_volume
    energy = lambda q, b: float(np.sum(np.sum(b**2, axis=-1) * mu))  # noqa: E731
    return sampled_sup(fam, energy, samples, seed)


def sampled_c4(fam, gamma, samples, seed):
    carleson = lambda q, b: box_carleson_integral(gamma, b, q, fam.field)  # noqa: E731
    return sampled_sup(fam, carleson, samples, seed)


def test_carleson_norm_zero_and_constant():
    w = ones_field(3)
    assert carleson_norm(gamma_zero(w.grid, 1, 1)) == 0.0
    # |gamma| = c on every cube: each level contributes c^2 ln2, maximized at the root
    g = gamma_constant(w.grid, 1, 1, value=[[2.0]])
    assert abs(carleson_norm(g) - 4.0 * LN2 * 4) < 1e-12


def test_carleson_norm_single_cube():
    w = ones_field(2)
    g = gamma_zero(w.grid, 1, 1)
    g.stack[w.grid.tree.index(Cube(1, (1,)))] = [[3.0]]
    # sup attained at Q = that cube: |gamma|^2 ln2
    assert abs(carleson_norm(g) - 9.0 * LN2) < 1e-12


def test_carleson_norm_monotone_for_diagonal(rng):
    w = ones_field(3)
    g1 = gamma_random(w.grid, 1, 1, seed=3)
    g2 = make_gamma("zero", w)
    g2.stack[:] = g1.stack * 2.0
    assert carleson_norm(g2) >= carleson_norm(g1)


def test_testfun_carleson_cases(rng):
    w = ones_field(2, N=2)
    v = np.array([1.0, 0.0])
    b = np.broadcast_to(v, (4, 2)).copy()
    assert box_carleson_integral(gamma_zero(w.grid, 1, 2), b, root_cube(1), w) == 0.0
    # W = I and b = v constant: every E_R b = v, so the sum telescopes to the
    # plain mass of gamma applied to v
    g = gamma_constant(w.grid, 1, 2, value=[[1.0, 0.0]])
    val = box_carleson_integral(g, b, root_cube(1), w)
    assert abs(val - LN2 * 3.0) < 1e-12  # three levels, mass one each
    # single-cube gamma: one term |gamma E_R b|^2 mu(R) ln2
    g1 = gamma_zero(w.grid, 1, 2)
    g1.stack[w.grid.tree.index(Cube(1, (0,)))] = [[2.0, 0.0]]
    val = box_carleson_integral(g1, b, root_cube(1), w)
    assert abs(val - 4.0 * 0.5 * LN2) < 1e-12


def test_testfun_carleson_two_dimensional(rng):
    # subtree slicing for n=2: compare against a brute-force cube loop
    w = random_weight_field(rng, n=2, N=2, L=2, spread=0.5, mu_spread=0.3)
    g = gamma_random(w.grid, 1, 2, seed=4)
    fam = CanonicalFamily(w)
    root = Cube(1, (0, 1))
    v = np.array([1.0, 0.0])
    b = fam.b_values(root, v)
    got = box_carleson_integral(g, b, root, w)
    brute = 0.0
    for r in (c for c in grid_cubes(w.grid) if cube_contains(root, c)):
        e = weighted_avg(b, r, w)
        ge = gamma_value(g, r) @ e
        brute += float(ge @ ge) * cube_measure(w.grid, r) * LN2
    assert abs(got - brute) <= 1e-12 * max(brute, 1.0)


def test_canonical_family_constant_weight():
    w = ones_field(2, N=2)
    fam = CanonicalFamily(w)
    v = np.array([0.6, 0.8])
    b = fam.b_values(root_cube(1), v)
    assert np.allclose(b, v)
    assert abs(fam.c3() - 1.0) < 1e-12


def test_canonical_family_two_cell_energy():
    w = WeightField(Grid(1, 1), np.array([1.0, 3.0]).reshape(2, 1, 1))
    fam = CanonicalFamily(w)
    b = fam.b_values(root_cube(1), np.array([1.0]))
    assert np.allclose(b.ravel(), [2.0, 2.0 / 3.0])
    assert abs(fam.c3() - math.sqrt(20.0 / 9.0)) < 1e-12


def test_canonical_normalization_dual_route(rng):
    # closed form and the exact integral route agree, and both give back v
    for _ in range(40):
        N = int(rng.integers(1, 4))
        w = random_weight_field(rng, N=N, L=3, spread=0.8, mu_spread=0.4)
        fam = CanonicalFamily(w)
        level = int(rng.integers(0, 4))
        cube = Cube(level, (int(rng.integers(0, 2**level)),))
        v = rng.standard_normal(N)
        v /= np.linalg.norm(v)
        w_q = cube_average(w, cube)[None]
        closed = fam.expectations(w_q, w_q, v[None])[0]
        integral = weighted_avg(fam.b_values(cube, v), cube, w)
        assert np.allclose(closed, v, atol=1e-10)
        assert np.allclose(integral, v, atol=1e-10)


def test_verify_hypotheses_flat_case():
    w = ones_field(2)
    hc = verify_hypotheses(w, gamma_zero(w.grid, 1, 1))
    assert hc.as_dict() == {"C1": 2.0, "C2": 1.0, "C3": 1.0, "C4": 0.0}


def test_verify_hypotheses_two_cell_cross_module():
    w = WeightField(Grid(1, 1), np.array([1.0, 4.0]).reshape(2, 1, 1))
    hc = verify_hypotheses(w, gamma_zero(w.grid, 1, 1))
    assert abs(hc.C2**2 - 2.125) < 1e-12
    assert hc.C3 >= 1.0 and hc.C4 == 0.0


def test_tb_run_default_eps1_is_half_eps2():
    # The net is never materialized, so eps1 = eps2/2 for every N and each run
    # stays in the proof regime; N=5 at the default eps2 0.1 is too large to walk.
    for N in range(1, 6):
        w = random_weight_field(np.random.default_rng(N), N=N, L=3, spread=0.3)
        runs = [(0.15, tb_run(w, gamma_martingale(w), eps2=0.3))]
        if N < 5:
            runs.append((0.05, tb_run(w, gamma_martingale(w))))
        for eps1, rep in runs:
            assert rep.eps["eps1"] == eps1 and rep.proof_regime, (N, eps1)
            assert rep.sector_count == ConeNet(N, eps1).size
            assert not [v for v in rep.violations if v["kind"] == "net-gap"], (N, eps1)


def test_tb_run_zero_gamma():
    w = ones_field(2)
    rep = tb_run(w, gamma_zero(w.grid, 1, 1))
    assert rep.carleson_norm == 0.0
    assert rep.assembled_bound == 0.0
    assert rep.violations == []
    assert rep.partition_residual <= 1e-12


def test_tb_run_flat_weight_constant_gamma():
    w = ones_field(2)
    rep = tb_run(w, gamma_constant(w.grid, 1, 1))
    assert abs(rep.carleson_norm - 3.0 * LN2) < 1e-12
    assert not rep.violations
    assert rep.partition_residual <= 1e-12
    assert rep.assembled_bound >= rep.carleson_norm
    assert rep.proof_regime


def test_tb_run_random_instances(rng):
    for i in range(6):
        n = 2 if i == 5 else 1
        N = 1 + i % 2
        L = 2 if n == 2 else 4
        w = generate(WeightGenerator("log-gaussian", amplitude=0.3, seed=50 + i), n, N, L)
        gam = make_gamma(("constant", "martingale", "random")[i % 3], w, seed=i)
        rep = tb_run(w, gam)
        assert not rep.violations
        assert rep.partition_residual <= 1e-9
        assert rep.assembled_bound >= rep.carleson_norm * (1 - 1e-12)
        d = rep.as_dict()
        assert set(d) >= {
            "carleson_norm",
            "assembled_bound",
            "violations",
            "per_sector",
            "partition_residual",
            "constants",
        }
        assert set(d["constants"]) == {"C1", "C2", "C3", "C4"}


def test_tb_run_reports_violations_outside_proof_regime():
    # eps1 > eps2 opens a window: the test-function stop only fires above
    # 1/eps2, so a cube whose averaged test function has norm in
    # (1/eps1, 1/eps2] stays in the sawtooth yet leaves the truncated cone.
    # The run must report that rather than hide it.
    w = WeightField(Grid(1, 2), np.array([1.0, 1.0, 1.0, 0.3]).reshape(4, 1, 1))
    # at the 0.3 cell the averaged test function has size 0.825/0.3 = 2.75,
    # between 1/0.45 = 2.22 and 1/0.3 = 3.33
    rep = tb_run(w, gamma_constant(w.grid, 1, 1), eps1=0.45, eps2=0.3, eps3=0.7)
    assert not rep.proof_regime
    assert rep.violations
    kinds = {v["kind"] for v in rep.violations}
    assert "cone-membership" in kinds
    assert any(v.get("R") == "level=2 coords=3" for v in rep.violations)
    assert rep.carleson_norm > 0.0


def test_gamma_martingale_root_zero(rng):
    w = random_weight_field(rng, N=2, L=3)
    g = gamma_martingale(w)
    assert g.stack.shape == (15, 1, 2)
    assert np.all(gamma_value(g, root_cube(1)) == 0.0)
    # every value below the root is the jump of the averages from its parent
    for cube in grid_cubes(w.grid, range(1, 4)):
        jump = cube_average(w, cube) - cube_average(w, cube_parent(cube))
        assert np.array_equal(gamma_value(g, cube), jump[:1, :])


def test_gamma_random_keeps_its_draws():
    # Each level is drawn in C order of its cubes and put in tree order.
    for n, L in ((1, 4), (2, 3), (3, 2)):
        g = Grid(n, L)
        gam = gamma_random(g, 2, 3, seed=9, scale=0.5)
        rng = np.random.default_rng(9)
        draws = np.concatenate([rng.uniform(-0.5, 0.5, size=(2 ** (n * k), 2, 3)) for k in range(L + 1)])
        assert np.array_equal(gam.stack, draws[oracle_grid_key(n, L)])


def test_gamma_martingale_refuses_more_rows_than_N(rng):
    # The jump of N x N averages has N rows; the other kinds take any M.
    w = random_weight_field(rng, n=2, N=2, L=2)
    for M in (3, 4):
        with pytest.raises(ValueError, match=f"at most N = 2 rows, got M = {M}"):
            gamma_martingale(w, rows=M)
    assert gamma_martingale(w, rows=2).stack.shape == (21, 2, 2)
    for kind in ("zero", "constant", "random"):
        gam = make_gamma(kind, w, M=3)
        assert gam.M == 3 and gam.stack.shape == (21, 3, 2)


def _rank_one_rows(rng, N):
    """1 x N rows: random ones, g_0 = +0.0 and -0.0 before a nonzero tail, zero
    tails after g_0 of either sign, a single nonzero entry at each place, and
    random rows at 1e-200 and 1e200."""
    plain = rng.standard_normal((200, N))
    signed_zero = rng.standard_normal((4, N))
    signed_zero[:, 0] = [0.0, -0.0, 0.0, -0.0]
    zero_tail = np.zeros((2, N))
    zero_tail[:, 0] = [2.5, -2.5]
    single = np.diag(rng.choice([-1.0, 1.0], N) * rng.uniform(0.5, 2.0, N))
    extreme = rng.standard_normal((40, N)) * np.repeat([1e-200, 1e200], 20)[:, None]
    normal = np.concatenate([plain, signed_zero, zero_tail, single])
    return normal[:, None, :], extreme[:, None, :]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_rank_one_closed_forms_match_svd_oracle(N):
    rng = np.random.default_rng(40 + N)
    normal, extreme = _rank_one_rows(rng, N)
    for rows in (normal, extreme):
        got, want = top_directions(rows), svd_top_directions(rows)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.all(np.einsum("ij,ij->i", got, want) > 0.0)
        assert np.max(np.abs(np.linalg.norm(got, axis=1) - 1.0)) <= 1e-15
        # svd's zero entries are +0.0, and so are the closed form's.
        assert np.array_equal(np.signbit(got[want == 0.0]), np.signbit(want[want == 0.0]))
    # Rows with a zero tail take e_1 whatever the sign of g_0.
    assert np.array_equal(top_directions(normal[204:206]), np.eye(N)[[0, 0]])
    # norms_sq on a one-row field: one of the normal rows per cube.
    g = Grid(1, 6)
    gam = tb.CarlesonField(g, 1, N, normal[: g.tree.size])
    got, want = gam.norms_sq(), svd_norms_sq(gam)
    assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_tb_run_rank_one_takes_no_row_svd(monkeypatch):
    # With M = 1 neither the norms nor the sector vectors of the multiplier
    # reach svd; the screens' N x N stacks still may.
    shapes, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for n, N, L in ((1, 2, 5), (2, 3, 3)):
        w = generate(WeightGenerator("log-gaussian", amplitude=0.4, seed=52), n, N, L)
        for kind in ("martingale", "random", "constant"):
            rep = tb_run(w, make_gamma(kind, w), eps2=0.3)
            assert rep.per_sector
    assert all(s[-2] == s[-1] for s in shapes)
    tb_run(w, make_gamma("random", w, M=2), eps2=0.3)
    assert any(s[-2:] == (2, N) for s in shapes)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    N=st.integers(1, 3),
    kind=st.sampled_from(["zero", "constant", "martingale", "random"]),
    samples=st.integers(1, 5),
    seed=st.integers(0, 2**20),
)
def test_canonical_c3_c4_match_generic_paths(n, N, kind, samples, seed):
    # The closed forms are the exact sup over unit v; the generic paths build
    # b_Q^v cell by cell for sampled v and sum its Carleson integral per cube,
    # so they can only come out lower, and for N=1 (v = +-1) they agree.
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 5 if n == 1 else 3))
    w = random_weight_field(rng, n=n, N=N, L=L, spread=0.6, mu_spread=0.3)
    gam = make_gamma(kind, w, seed=seed)
    fam = CanonicalFamily(w)
    pairs = (
        (fam.c3(), sampled_c3(fam, samples, seed)),
        (fam.c4(gam), sampled_c4(fam, gam, samples, seed)),
    )
    for exact, sampled in pairs:
        assert sampled <= exact * (1.0 + 1e-12)
        if N == 1:
            assert abs(exact - sampled) <= 1e-12 * exact


def full_constants(fam, gamma):
    """C3 and C4 with ``_sup_form`` replaced by the unscreened oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tb.CanonicalFamily, "_sup_form", full_sup_form)
        return fam.c3(), fam.c4(gamma)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    N=st.integers(1, 4),
    kind=st.sampled_from(["zero", "constant", "martingale", "random"]),
    seed=st.integers(0, 2**20),
)
def test_screened_c3_c4_equal_the_full_batch(n, N, kind, seed):
    # The screen only drops cubes that cannot attain the sup, and LAPACK takes
    # each matrix on its own, so C3 and C4 keep the bits of the full batch.
    rng = np.random.default_rng(seed)
    L = int(rng.integers(0, (7, 4, 3)[n - 1]))
    spread = float(rng.uniform(0.05, 1.5))
    w = random_weight_field(rng, n=n, N=N, L=L, spread=spread, mu_spread=0.5)
    gam = make_gamma(kind, w, seed=seed)
    fam = CanonicalFamily(w)
    assert (fam.c3(), fam.c4(gam)) == full_constants(fam, gam)


@pytest.mark.parametrize("n, N", [(1, 1), (1, 3), (2, 2), (3, 4)])
def test_screened_sup_of_a_constant_field(n, N):
    # A constant weight makes W_Q (W^-2)_Q W_Q / mu(Q) the identity on every
    # cube, so the sup is attained everywhere, up to rounding.
    rng = np.random.default_rng(N)
    L = 6 - 2 * n
    cells = np.broadcast_to(random_spd_cells(rng, 1, N)[0], (2**L,) * n + (N, N)).copy()
    w = WeightField(Grid(n, L), cells)
    fam = CanonicalFamily(w)
    gam = gamma_constant(w.grid, 1, N)
    assert (fam.c3(), fam.c4(gam)) == full_constants(fam, gam)
    assert abs(fam.c3() - 1.0) < 1e-12


@pytest.mark.parametrize("scale", [1e-170, 1e-300])
def test_screened_sup_of_a_tiny_density(scale):
    # Every form is about ``scale``, so its squared entries underflow: at seed
    # 5 a bound built from squares, such as the Frobenius norm, would drop the
    # cube that attains C3.  The row-sum bound squares nothing.
    rng = np.random.default_rng(5)
    w = random_weight_field(rng, n=1, N=2, L=5, spread=1.0, mu_spread=0.5)
    w = WeightField(Grid(1, 5, w.grid.mu * scale), w.values)
    fam = CanonicalFamily(w)
    gam = make_gamma("martingale", w)
    assert (fam.c3(), fam.c4(gam)) == full_constants(fam, gam)


def record_eigvalsh(monkeypatch):
    """Every stack ``eigvalsh`` is given, in call order."""
    seen, real = [], np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return seen


def symmetrised_forms(fam, forms):
    avg = fam.field.average_stacks(("w",))[0]
    m = avg @ forms @ avg
    return (m + np.swapaxes(m, -1, -2)) / 2.0


@pytest.mark.parametrize("ahead", [1e-15, -1e-15, 0.0])
def test_screened_sup_of_a_near_tie(monkeypatch, ahead):
    # Cube 1's form is diagonal, with top a; cube 5's has diagonal b < a and
    # top b + c = a (1 + ahead), reached off the diagonal.  Both reach low = a,
    # so both go to eigvalsh, and the sup is the oracle's.
    w = WeightField(Grid(2, 2), np.broadcast_to(np.eye(2), (4, 4, 2, 2)).copy())
    fam = CanonicalFamily(w)
    mu = w.grid.mu_stack
    forms = np.zeros((len(mu), 2, 2))
    forms[:] = np.eye(2) * 1e-3
    a = 2.0
    b = 1.5
    c = a * (1.0 + ahead) - b
    forms[1] = np.diag([a, 0.0]) * mu[1]
    forms[5] = np.array([[b, c], [c, b]]) * mu[5]
    seen = record_eigvalsh(monkeypatch)
    got = fam._sup_form(forms)
    s = symmetrised_forms(fam, forms)
    assert len(seen) == 1 and len(seen[0]) == 2
    assert {r.tobytes() for r in seen[0]} == {s[1].tobytes(), s[5].tobytes()}
    assert got == full_sup_form(fam, forms)


def test_eigvalsh_sees_only_the_screened_rows(monkeypatch):
    w = generate(WeightGenerator("log-gaussian", amplitude=0.5, seed=53), 2, 2, 4)
    fam = CanonicalFamily(w)
    mu = w.grid.mu_stack
    forms = w.integral_stack("winv2").copy()
    seen = record_eigvalsh(monkeypatch)
    c3 = fam.c3()
    assert len(seen) == 1 and len(seen[0]) < len(mu)
    # Every row whose Gershgorin ratio reaches the largest diagonal ratio goes.
    s = symmetrised_forms(fam, forms)
    low = np.max(np.max(np.diagonal(s, axis1=1, axis2=2), axis=1) / mu)
    rows = np.max(np.abs(s).sum(axis=2), axis=1) / mu
    reach = {s[i].tobytes() for i in np.flatnonzero(rows >= low)}
    assert reach <= {r.tobytes() for r in seen[0]}
    assert c3 == full_sup_form(fam, forms)
    # A NaN row is always kept, so the sup is NaN, as the full batch's is,
    # and eigvalsh is not called.
    forms[7, 0, 1] = np.nan
    seen.clear()
    with np.errstate(invalid="ignore"):
        got, want = fam._sup_form(forms), full_sup_form(fam, forms)
    assert math.isnan(got) and math.isnan(want)
    assert seen == []


def test_screened_sup_of_a_non_finite_field():
    # Cells alternating I and 1e200 I overflow the forms to inf and NaN; the
    # rows that are not finite are all kept, so C3 and C4 are NaN, as the full
    # batch's are, where eigvalsh would return finite garbage.
    vals = np.array([np.eye(2) * (1.0 if i % 2 == 0 else 1e200) for i in range(4)])
    w = WeightField(Grid(1, 2), vals)
    fam = CanonicalFamily(w)
    gam = make_gamma("martingale", w)
    with np.errstate(all="ignore"):
        got, want = (fam.c3(), fam.c4(gam)), full_constants(fam, gam)
    assert all(math.isnan(x) for x in got + want)


def test_tb_run_canonical_constants_skip_per_cube_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-cube test-function path called")

    monkeypatch.setattr(tb.CanonicalFamily, "b_values", refuse)
    w = generate(WeightGenerator("log-gaussian", amplitude=0.3, seed=51), 1, 2, 4)
    rep = tb_run(w, make_gamma("martingale", w), eps2=0.3)
    assert not rep.violations
    assert rep.constants["C3"] >= 1.0 and rep.constants["C4"] > 0.0


def test_partition_check_catches_wrong_owner_chains(monkeypatch, tmp_path):
    # A smooth field and eps3 = 0.7^2/8, so the corona stop fires at 38 of
    # the 63 cubes and owners are inherited elsewhere.
    w = generate(WeightGenerator("log-gaussian", amplitude=0.08, seed=51), 1, 2, 5)
    gam = make_gamma("martingale", w)
    assert tb_run(w, gam, eps2=0.7).partition_residual == 0.0
    path = tmp_path / "f.wf"
    write_weight_field(path, w)
    argv = ["tb-run", "--field", str(path), "--gamma", "martingale", "--eps2", "0.7"]
    argv += ["--report", str(tmp_path / "r.json")]
    assert main(argv) == 0

    # A check that read the wrong propagation's owner arrays would agree with them.
    monkeypatch.setattr(stopping, "anchor_owners", coarse_anchor_owners)
    assert tb_run(w, gam, eps2=0.7).partition_residual > 1e-9
    assert main(argv) == 2


def _first_gen_owner(cube, anchor, first_gen):
    """The Cube-walk owner of ``cube`` under ``anchor``: step into the first
    generation of the current owner while one of its cubes holds ``cube``."""
    s = anchor
    while s.level < cube.level:
        selected = first_gen(s)
        for level in range(s.level + 1, cube.level + 1):
            anc = Cube(level, tuple(c >> (cube.level - level) for c in cube.coords))
            if anc in selected:
                s = anc
                break
        else:
            return s
    return s


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    L=st.integers(1, 4),
    kind=st.sampled_from(["bernoulli", "bernoulli-pair", "corona-kato", "never", "always"]),
    seed=st.integers(0, 10**6),
)
def test_level_engine_matches_cube_walk_oracle(n, L, kind, seed):
    # For every anchor level, the owner arrays and the second owners of the
    # level engine equal the old per-cube owner walk through first generations.
    L = min(L, 3) if n == 2 else L
    rng = np.random.default_rng(seed)
    tree = CubeTree(n, L)
    # Smooth fields and eps2 near 1, so that both stops fire at some cubes
    # and not at others.
    spread = float(rng.uniform(0.05, 0.4))
    w = random_weight_field(rng, n=n, N=2, L=L, spread=spread, mu_spread=0.3)
    if kind == "corona-kato":
        eps2 = float(rng.uniform(0.8, 0.99))
        first = stopping.corona_criterion(w, float(rng.uniform(0.05, 0.3)))
        vectors = rng.standard_normal((3, 2))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        label = rng.integers(0, 3, tree.size)  # each cube's own sector
        avg = w.average_stacks(("w",))[0]

        def canonical(v):
            return lambda w_s, w_r, r: tb.CanonicalFamily.expectations(w_s, w_r, v)

        second = [stopping.kato_criterion(w, v, eps2, canonical(v)) for v in vectors]

        def fires2(s, a, rows, r):
            v = vectors[label[r[rows]]]
            e = tb.CanonicalFamily.expectations(avg[s], avg[a], v)
            return stopping.kato_fires(avg[s], avg[a], e, v, eps2)

    else:
        p = float(rng.uniform(0.1, 0.6))
        pair = (bernoulli_criterion(p, seed), bernoulli_criterion(p, seed + 1))
        # "never" and "always" are the edge cases: one sawtooth, or one per cube.
        first, other = {"never": (NEVER, NEVER), "always": (ALWAYS, ALWAYS)}.get(kind, pair)
        label = np.zeros(tree.size, dtype=int)
        second = [other]

        def fires2(s, a, rows, r):
            return second[0].fires_many(tree, s, a)

    memo = {}

    def first_gen(crit, key):
        def get(s):
            if (key, s) not in memo:
                memo[key, s] = set(first_generation(s, crit, L))
            return memo[key, s]

        return get

    chains = stopping.anchor_owners(tree, first, 0, L)
    for j in range(L + 1):
        own = np.concatenate(chains.levels(j))
        r = np.arange(tree.offsets[j], tree.size)
        s2 = stopping.chain_owners(tree, own, r, lambda s, a, rows: fires2(s, a, rows, r))
        for i, idx in enumerate(r):
            cube = tree.cube(idx)
            anchor = Cube(j, tuple(c >> (cube.level - j) for c in cube.coords))
            s1 = _first_gen_owner(cube, anchor, first_gen(first, "first"))
            assert tree.cube(own[i]) == s1
            if kind != "bernoulli":
                crit = second[label[idx]]
                expect = _first_gen_owner(cube, s1, first_gen(crit, label[idx]))
                assert tree.cube(s2[i]) == expect


def per_anchor_tb_bounds(field, gamma, eps1, eps2, eps3):
    """The assembled bound and the root's per-sector bound masses of a
    ``tb_run``, with the chains of every live cube rebuilt anchor level by
    anchor level from ``owner_levels`` and ``chain_owners``, row by row."""
    tree, avg, mu = field.grid.tree, field.average_stacks(("w",))[0], field.grid.mu_stack
    gsq, gammas = svd_norms_sq(gamma), gamma.stack
    live = np.flatnonzero(gsq > 0.0)
    live = live[np.argsort(tree.preorder(live))]
    net = ConeNet(field.N, eps1)
    sector = net.cover_indices(svd_top_directions(gammas[live]))
    v0 = net.vectors_at(sector)
    corona = stopping.corona_criterion(field, eps3)

    def kato(s, a, v):
        e = CanonicalFamily.expectations(avg[s], avg[a], v)
        return stopping.kato_fires(avg[s], avg[a], e, v, eps2)

    best, root = 0.0, None
    for j in range(tree.L + 1):
        rows = np.flatnonzero(tree.level[live] >= j)
        r, v = live[rows], v0[rows]
        s1 = np.concatenate(owner_levels(tree, corona, tree.span(j)))[r - tree.offsets[j]]
        s2 = stopping.chain_owners(tree, s1, r, lambda s, a, i: kato(s, a, v[i]))
        e = CanonicalFamily.expectations(avg[s2], avg[r], v)
        ge_sq = np.sum((gammas[r] @ e[..., None])[..., 0] ** 2, axis=-1)
        contrib = (2.0 / eps1**3) ** 2 * ge_sq * mu[r] * LN2
        acc = np.bincount(tree.ancestor(r, j) - tree.offsets[j], weights=contrib, minlength=2 ** (tree.n * j))
        best = max(best, float(np.max(acc / mu[tree.span(j)])))
        if j == 0:
            used, slot = np.unique(sector, return_inverse=True)
            root = dict(zip(used.tolist(), np.bincount(slot, weights=contrib).tolist()))
    return best, root


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    kind=st.sampled_from(["martingale", "random"]),
    eps2=st.floats(0.2, 0.9),
    loose=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_tb_run_bounds_match_per_anchor_chains(n, kind, eps2, loose, seed):
    # Every anchor's bound adds the contributions of its own chains: the
    # shared propagation gives the bits of a per-anchor rebuild.  A loose
    # eps3 keeps long corona sawtooths, so anchors' chains differ.
    rng = np.random.default_rng(seed)
    w = random_weight_field(rng, n=n, N=2, L=5 if n == 1 else 3, spread=0.3, mu_spread=0.3)
    gam = make_gamma(kind, w, seed=seed)
    eps3 = float(rng.uniform(0.05, 0.5)) if loose else eps2**2 / 8.0
    rep = tb_run(w, gam, eps2=eps2, eps3=eps3)
    best, root = per_anchor_tb_bounds(w, gam, eps2 / 2.0, eps2, eps3)
    assert rep.assembled_bound == best
    assert {int(s): t["bound_mass"] for s, t in rep.per_sector.items()} == root


def test_tb_run_skips_cube_walks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Cube walk called")

    for name in ("run_stopping", "volberg_stop"):
        monkeypatch.setattr(stopping, name, refuse)
    monkeypatch.setattr(CubeTree, "index", refuse)
    for n, N, L in ((1, 2, 5), (2, 2, 3)):
        w = generate(WeightGenerator("log-gaussian", amplitude=0.4, seed=52), n, N, L)
        rep = tb_run(w, make_gamma("martingale", w), eps2=0.3)
        assert not rep.violations and rep.partition_residual == 0.0
        assert rep.per_sector


def test_tb_run_inverts_the_averages_once(monkeypatch):
    # The corona and Volberg criteria share one tree-order inverse per field.
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    for n, N, L in ((1, 2, 5), (2, 3, 3)):
        w = generate(WeightGenerator("log-gaussian", amplitude=0.4, seed=52), n, N, L)
        calls.clear()
        tb_run(w, make_gamma("martingale", w), eps2=0.3)
        assert calls == [(w.grid.tree.size, N, N)]
        tb_run(w, make_gamma("martingale", w), eps2=0.3, lam=4.0)
        assert len(calls) == 1


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([1, 2]), lam=st.floats(1.2, 6.0), seed=st.integers(0, 10**6))
def test_volberg_packing_matches_volberg_stop(n, lam, seed):
    rng = np.random.default_rng(seed)
    w = random_weight_field(rng, n=n, N=2, L=4 if n == 1 else 2, spread=1.2, mu_spread=0.4)
    got = tb_run(w, gamma_zero(w.grid, 1, 2), lam=lam).volberg_packing
    expect = stopping.volberg_stop(root_cube(n), w, lam)[1]
    assert abs(got - expect) <= 1e-12 * expect


def test_tb_run_violation_order():
    # Outside the proof regime several cubes leave the cone.  Net gaps come
    # first in Cube order, then the chain entries by R, S1 and S2 in Cube
    # order, each row's failed checks in check order.
    vals = np.array([1.0, 0.3, 1.0, 1.0, 0.25, 1.0, 0.3, 1.0])
    w = WeightField(Grid(1, 3), vals.reshape(8, 1, 1))
    rep = tb_run(w, gamma_random(w.grid, 1, 1, seed=3), eps1=0.45, eps2=0.3, eps3=0.7)
    kinds = ["net-gap", "energy-bound", "projection-bound", "cone-membership", "sector-bound"]

    def cube(desc):
        level, coords = desc.split()
        return Cube(int(level[6:]), tuple(int(c) for c in coords[7:].split(",")))

    def key(v):
        if v["kind"] == "net-gap":
            return (0, cube(v["cube"]))
        return (1, cube(v["R"]), cube(v["S1"]), cube(v["S2"]), kinds.index(v["kind"]))

    keys = [key(v) for v in rep.violations]
    assert len({k[1] for k in keys}) >= 3
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
