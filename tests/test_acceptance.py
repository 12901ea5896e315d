"""Acceptance gate: every numbered criterion, one test and one printed line each.

Randomized budgets follow the stated trial counts; all expected values are
either exact identities, hand-derived constants, or inequalities with the
stated slack.  Derived Monte-Carlo families are frozen by seed.
"""

import math

import numpy as np
import pytest

import conftest

from dwlab.cli import main
from dwlab.cones import build_net, coverage_check, maximizing_vector_bound
from dwlab.grid import (
    Cube,
    CubeTree,
    Grid,
    WeightField,
    read_weight_field,
    root_cube,
    write_weight_field,
)
from dwlab.haar import paraproduct_plus, product_identity_residual
from dwlab.harness import WeightGenerator, generate
from dwlab.rrt import conclusion_value, delta_of_eps_curve, hypothesis_margin
from dwlab.stopping import (
    corona_stop,
    kato_family_stop,
    loewner_geq,
    martingale_square_check,
    partition_residual,
    run_stopping,
    volberg_stop,
)
from dwlab.tb import CanonicalFamily, make_gamma, tb_run
from conftest import (
    b2_constants,
    bernoulli_criterion,
    chain_residual,
    cube_ratios,
    random_weight_field,
    weighted_avg,
)


def _report(name, ok, detail=""):
    line = f"ACCEPT {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"{name} failed: {detail}"


# 1. Exact identities ---------------------------------------------------------------


def test_1a_haar_product_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        b = rng.standard_normal(256)
        f = rng.standard_normal(256)
        scale = 1.0 + float(np.max(np.abs(b * f)))
        worst = max(worst, product_identity_residual(b, f) / scale)
    _report("1a haar-identity", worst <= 1e-10, f"worst residual {worst:.3e}")


def test_1b_paraproduct_energy_equality():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        b = rng.standard_normal(256)
        f = rng.standard_normal(256)
        res = paraproduct_plus(b, f)
        norm_sq = float(np.mean(res.field**2))
        worst = max(worst, abs(norm_sq - res.energy) / max(res.energy, 1.0))
    _report("1b paraproduct-energy", worst <= 1e-10, f"worst residual {worst:.3e}")


def test_1c_canonical_normalization():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(50):
        N = [1, 2, 3][i % 3]
        w = random_weight_field(rng, n=1, N=N, L=3, spread=0.8, mu_spread=0.4)
        fam = CanonicalFamily(w)
        for _ in range(20):
            level = int(rng.integers(0, 4))
            cube = Cube(level, (int(rng.integers(0, 2**level)),))
            v = rng.standard_normal(N)
            v /= np.linalg.norm(v)
            got = weighted_avg(fam.b_values(cube, v), cube, w)
            worst = max(worst, float(np.max(np.abs(got - v))))
    _report("1c test-function-mean", worst <= 1e-10, f"worst |E_Q b - v| {worst:.3e}")


def test_1d_reverse_holder_identities():
    rng = np.random.default_rng(104)
    worst_sq = worst_eq = 0.0
    chain_ok = True
    for i in range(500):
        N = [1, 2, 3][i % 3]
        w = random_weight_field(rng, n=1, N=N, L=int(rng.integers(1, 3)), spread=0.8, mu_spread=0.3)
        b2i, b2ii, b2iii, b2iv = b2_constants(w, shifts=0, directions=4, seed=i)
        worst_sq = max(worst_sq, abs(b2iii - b2ii**2) / max(b2ii**2, 1.0))
        worst_eq = max(worst_eq, abs(b2i - b2ii) / max(b2ii, 1.0))
        if not (1.0 - 1e-9 <= b2ii <= b2iv * (1 + 1e-10) and b2iv <= b2ii**N * (1 + 1e-10)):
            chain_ok = False
    ok = worst_sq <= 1e-10 and worst_eq <= 1e-10 and chain_ok
    _report(
        "1d reverse-holder-identities",
        ok,
        f"|iii - ii^2| {worst_sq:.2e}, |i - ii| {worst_eq:.2e}, order {chain_ok}",
    )


def test_1e_sawtooth_partition_exact():
    rng = np.random.default_rng(105)
    worst = 0.0
    for seed in range(60):
        L = int(rng.integers(2, 5))
        g = Grid(1, L, rng.uniform(0.3, 3.0, 2**L))
        res = run_stopping(root_cube(1), bernoulli_criterion(0.35, seed), g.tree)
        for weight in (np.ones(res.tree.size), g.mu_stack):
            got = partition_residual(res.tree, res.criterion, res.root, res.cubes, res.owner, weight)
            worst = max(worst, got)
    for seed in range(30):
        L = 3
        g = Grid(1, L, rng.uniform(0.3, 3.0, 2**L))
        crits = [bernoulli_criterion(0.4, seed), bernoulli_criterion(0.4, seed + 1000)]
        tree = CubeTree(1, L)
        worst = max(worst, chain_residual(tree, *crits, g.mu_stack))
    _report("1e sawtooth-partition", worst <= 1e-9, f"worst residual {worst:.3e}")


# 2. Universal inequalities ---------------------------------------------------------


def _weight_trial_batch(rng, trials, N, cells=4):
    g = rng.standard_normal((trials, cells, N, N)) * rng.uniform(
        0.2, 1.0, (trials, 1, 1, 1)
    )
    g = (g + g.transpose(0, 1, 3, 2)) / 2.0
    w, v = np.linalg.eigh(g)
    mu = rng.uniform(0.25, 4.0, (trials, cells))
    return w, v, mu


def _avg_power(w, v, mu, p):
    cell = np.einsum("tcij,tcj,tckj->tcik", v, np.exp(p * w), v)
    return np.einsum("tcij,tc->tij", cell, mu) / mu.sum(1)[:, None, None]


def _batch_quantities(w, v, mu):
    avg_lndet = np.einsum("tc,tc->t", mu, w.sum(-1)) / mu.sum(1)
    avg1 = _avg_power(w, v, mu, 1.0)
    avg2 = _avg_power(w, v, mu, 2.0)
    avgm1 = _avg_power(w, v, mu, -1.0)
    avgm2 = _avg_power(w, v, mu, -2.0)
    det1 = np.prod(np.linalg.eigvalsh(avg1), axis=-1)
    det2 = np.prod(np.linalg.eigvalsh(avg2), axis=-1)
    detm1 = np.prod(np.linalg.eigvalsh(avgm1), axis=-1)
    detm2 = np.prod(np.linalg.eigvalsh(avgm2), axis=-1)
    chain = np.stack(
        [np.sqrt(det2), det1, np.exp(avg_lndet), 1.0 / detm1, 1.0 / np.sqrt(detm2)],
        axis=1,
    )
    inv1 = np.linalg.inv(avg1)
    item3 = inv1 @ avg2 @ inv1
    b2_iii = np.linalg.eigvalsh((item3 + item3.transpose(0, 2, 1)) / 2.0)[:, -1]
    out = {
        "chain": chain,
        "b2_iii": b2_iii,
        "b2_ii": np.sqrt(b2_iii),
        "b2_iv": np.sqrt(det2) / det1,
        "ainf_ii": det1 / np.exp(avg_lndet),
        "a2": det1 * detm1,
        "thewest": det2 / np.exp(2.0 * avg_lndet),
    }
    # direction-sampled logarithmic constant
    N = w.shape[-1]
    dirs = np.concatenate([np.eye(N), _unit_rows(np.random.default_rng(7), 3, N)])
    proj = np.einsum("tcji,dj->tcdi", v, dirs)
    nrm2 = np.einsum("tcdi,tci->tcd", proj**2, np.exp(-w))
    avg_log = 0.5 * np.einsum("tcd,tc->td", np.log(nrm2), mu) / mu.sum(1)[:, None]
    ww, vv = np.linalg.eigh(avg1)
    proj1 = np.einsum("tji,dj->tdi", vv, dirs)
    den2 = np.einsum("tdi,ti->td", proj1**2, 1.0 / ww)
    out["ainf_i"] = np.max(np.exp(avg_log) / np.sqrt(den2), axis=1)
    return out


def _unit_rows(rng, count, dim):
    x = rng.standard_normal((count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def weight_trial_data():
    rng = np.random.default_rng(106)
    out = []
    for N, trials in ((1, 34000), (2, 33000), (3, 33000)):
        w, v, mu = _weight_trial_batch(rng, trials, N)
        out.append((N, w, v, mu, _batch_quantities(w, v, mu)))
    return out


def test_2a_determinant_chain(weight_trial_data):
    worst = 0.0
    total = 0
    for _, _, _, _, q in weight_trial_data:
        chain = q["chain"]
        total += chain.shape[0]
        diffs = chain[:, 1:] - chain[:, :-1]  # must be <= 0 up to slack
        scale = np.maximum(np.abs(chain[:, 1:]), np.maximum(np.abs(chain[:, :-1]), 1.0))
        worst = max(worst, float((diffs / scale).max()))
    # library spot-check on rebuilt fields
    rng = np.random.default_rng(107)
    N, w, v, mu, q = weight_trial_data[1]
    for t in rng.integers(0, w.shape[0], size=40):
        cells = np.einsum("cij,cj,ckj->cik", v[t], np.exp(w[t]), v[t])
        field = WeightField(Grid(1, 2, mu[t]), cells)
        lib = cube_ratios(field, root_cube(1))
        assert np.allclose(lib["chain"], q["chain"][t], rtol=1e-10)
    _report(
        "2a determinant-chain",
        worst <= 1e-9,
        f"worst order defect {worst:.3e} over {total} trials",
    )


def test_2b_constants_at_least_one(weight_trial_data):
    worst = np.inf
    total = 0
    for _, _, _, _, q in weight_trial_data:
        total += q["b2_ii"].shape[0]
        for key in ("b2_ii", "b2_iii", "b2_iv", "ainf_i", "ainf_ii", "a2", "thewest"):
            worst = min(worst, float(q[key].min()))
    rng = np.random.default_rng(108)
    N, w, v, mu, q = weight_trial_data[2]
    for t in rng.integers(0, w.shape[0], size=20):
        cells = np.einsum("cij,cj,ckj->cik", v[t], np.exp(w[t]), v[t])
        field = WeightField(Grid(1, 2, mu[t]), cells)
        lib = cube_ratios(field, root_cube(1))
        for key in ("b2_ii", "b2_iii", "b2_iv", "ainf_ii", "a2", "thewest"):
            assert abs(lib[key] - q[key][t]) <= 1e-10 * max(1.0, q[key][t])
    _report(
        "2b constants-at-least-one",
        worst >= 1.0 - 1e-9,
        f"smallest constant {worst:.12f} over {total} trials",
    )


def test_2c_maximizing_vector_inequality():
    rng = np.random.default_rng(109)
    worst = 0.0
    count = 0
    for mp in (1, 2, 3):
        for m in (1, 2, 3):
            k = 11112
            count += k
            a = rng.standard_normal((k, mp, m)) * 10.0 ** rng.uniform(-2, 2, (k, 1, 1))
            x = _unit_rows(rng, k, m)
            y = _unit_rows(rng, k, m)
            norms = np.linalg.svd(a, compute_uv=False)[:, 0]
            lhs = np.linalg.norm(np.einsum("kij,kj->ki", a, y), axis=1)
            ax = np.linalg.norm(np.einsum("kij,kj->ki", a, x), axis=1)
            deficit = np.clip(1.0 - ax / norms, 0.0, None)
            rhs = (np.einsum("ki,ki->k", x, y) - np.sqrt(2.0 * deficit)) * norms
            worst = max(worst, float(((rhs - lhs) / norms).max()))
    # library cross-check on a handful
    for _ in range(50):
        a = rng.standard_normal((2, 3))
        x, y = _unit_rows(rng, 2, 3)
        lhs, rhs = maximizing_vector_bound(a, x, y)
        assert lhs >= rhs - 1e-9 * np.linalg.svd(a, compute_uv=False)[0]
    _report(
        "2c maximizing-vector",
        worst <= 1e-9,
        f"worst defect {worst:.3e} over {count} trials",
    )


def test_2d_martingale_matrix_estimate():
    rng = np.random.default_rng(110)
    bad = 0
    for seed in range(500):
        N = [1, 2, 3][seed % 3]
        w = random_weight_field(rng, n=1, N=N, L=3, spread=0.9, mu_spread=0.4)
        res = run_stopping(root_cube(1), bernoulli_criterion(0.45, seed), w.grid.tree)
        lhs, rhs, ok = martingale_square_check(w, res)
        if not ok or not loewner_geq(rhs, lhs, 1e-9 * max(float(np.abs(rhs).max()), 1e-300)):
            bad += 1
    _report("2d martingale-square", bad == 0, f"{bad} failures over 500 trees")


def test_2e_reverse_triangle_and_scalar_identity():
    rng = np.random.default_rng(111)
    worst = 0.0
    for m in (1, 2, 3):
        k = 33334
        g = rng.standard_normal((k, 2, m, m)) * 0.7
        g = (g + g.transpose(0, 1, 3, 2)) / 2.0
        ww, vv = np.linalg.eigh(g)
        mats = np.einsum("tpij,tpj,tplj->tpil", vv, np.exp(ww), vv)
        x = rng.standard_normal((k, m))
        ax = np.linalg.norm(np.einsum("kij,kj->ki", mats[:, 0], x), axis=1)
        bx = np.linalg.norm(np.einsum("kij,kj->ki", mats[:, 1], x), axis=1)
        diff = np.linalg.norm(
            np.einsum("kij,kj->ki", mats[:, 0] - mats[:, 1], x), axis=1
        )
        worst = max(worst, float((np.abs(ax - bx) - diff).max() / max(diff.max(), 1.0)))
    rows = delta_of_eps_curve(1, [0.05, 0.1, 0.2, 0.4])
    identity = all(r["delta"] == r["eps"] for r in rows)
    margin_ok = True
    for _ in range(200):
        a, b = np.exp(rng.standard_normal(2))
        if abs(hypothesis_margin([[a]], [[b]]) - conclusion_value([[a]], [[b]])) > 1e-12:
            margin_ok = False
    ok = worst <= 1e-9 and identity and margin_ok
    _report(
        "2e reverse-triangle",
        ok,
        f"worst converse defect {worst:.3e}, 1-d identity {identity and margin_ok}",
    )


# 3. Cone-net coverage --------------------------------------------------------------


def test_3_cone_coverage():
    failures = {}
    cases = [(N, eps1) for N in (1, 2, 3, 4) for eps1 in (0.2, 0.3, 0.5)]
    for N, eps1 in cases + [(5, 0.3), (5, 0.5)]:
        net = build_net(N, eps1)
        failures[(N, eps1)] = coverage_check(net, 10000, seed=N * 100 + int(10 * eps1))
        failures[(N, eps1)] += int(net.certificate_cos < net.required_cos)
    bad = {k: v for k, v in failures.items() if v}
    _report(
        "3 cone-coverage", not bad, f"failures {bad or 0} over {len(failures)} x 10000 matrices"
    )


# 4. Packing trends -----------------------------------------------------------------


@pytest.fixture(scope="module")
def packing_fields():
    rng = np.random.default_rng(42)
    fields = []
    for i in range(120):
        N = [1, 2, 3][i % 3]
        kind = ["log-gaussian", "log-gaussian", "rotated-diagonal", "two-scale-adversarial"][i % 4]
        if kind == "two-scale-adversarial":
            amp = float(0.15 + 0.2 * rng.random())
        else:
            amp = float((0.25 + 0.3 * rng.random()) / math.sqrt(N))
        fields.append(
            generate(WeightGenerator(kind, amplitude=amp, correlation=0.5, seed=4000 + i), 1, N, 6)
        )
    return fields


def test_4a_volberg_packing_trend(packing_fields):
    root = root_cube(1)
    lams = (2.0, 4.0, 16.0, 256.0)
    curve = []
    for lam in lams:
        worst = max(volberg_stop(root, f, lam)[1] * math.log(lam) for f in packing_fields)
        curve.append(worst)
    ok = all(curve[i + 1] <= 1.1 * curve[i] + 1e-12 for i in range(len(curve) - 1))
    _report(
        "4a volberg-packing",
        ok,
        "mass*ln(lam) = " + ", ".join(f"{x:.4f}" for x in curve),
    )


def test_4b_corona_packing_trend(packing_fields):
    root = root_cube(1)
    eps3s = (0.4, 0.2, 0.1, 0.05)
    curve = []
    for eps3 in eps3s:
        worst = max(corona_stop(root, f, eps3)[1] * eps3**2 for f in packing_fields)
        curve.append(worst)
    ok = all(curve[i + 1] <= 1.1 * curve[i] + 1e-12 for i in range(len(curve) - 1))
    _report(
        "4b corona-packing",
        ok,
        "packing*eps3^2 = " + ", ".join(f"{x:.4f}" for x in curve),
    )


def test_4c_kato_first_generation_contraction(packing_fields):
    root = root_cube(1)
    worst = 0.0
    for i, f in enumerate(packing_fields):
        v0 = np.random.default_rng(i).standard_normal(f.N)
        v0 /= np.linalg.norm(v0)
        _, ratio = kato_family_stop(root, f, CanonicalFamily(f), v0, 0.1)
        worst = max(worst, ratio)
    _report("4c kato-contraction", worst <= 0.99, f"worst first-generation mass {worst:.4f}")


# 5. End-to-end runs ----------------------------------------------------------------


def test_5_tb_run_proof_skeleton():
    bad = []
    # 50 instances at N <= 2 and the default eps2 0.1, then N=3 at eps2 0.1
    # and N=4 at eps2 0.3.
    for i in range(52):
        n = 2 if i % 5 == 4 else 1
        N = (1 if i % 5 == 3 else 2) if i < 50 else i - 47
        L = 2 if n == 2 else 4
        kind = ["log-gaussian", "rotated-diagonal", "two-scale-adversarial"][i % 3]
        amp = (0.25 + 0.3 * (i % 7) / 6.0) / math.sqrt(N)
        w = generate(WeightGenerator(kind, amplitude=amp, seed=7000 + i), n, N, L)
        gamma = make_gamma(["constant", "martingale", "random"][i % 3], w, seed=i)
        rep = tb_run(w, gamma, eps2=0.3 if N == 4 else 0.1)
        if (
            rep.violations
            or rep.partition_residual > 1e-9
            or rep.assembled_bound < rep.carleson_norm * (1 - 1e-12)
            or not rep.proof_regime
        ):
            bad.append(i)
    _report("5 tb-run", not bad, f"failing instances {bad or 'none'} of 52")


# 6. Reproducibility ----------------------------------------------------------------


def test_6_reproducibility(tmp_path, monkeypatch):
    monkeypatch.setenv("DWLAB_JOBS", "1")
    field_path = tmp_path / "f.wf"
    w = generate(WeightGenerator("log-gaussian", amplitude=0.4, seed=9, mu_amplitude=0.2), 1, 2, 3)
    write_weight_field(field_path, w)

    identical = True
    runs = {
        "check-weight": ["check-weight", "--field", str(field_path), "--shifts", "2"],
        "tb-run": ["tb-run", "--field", str(field_path), "--gamma", "random", "--seed", "3"],
        "corona": ["corona", "--field", str(field_path), "--criterion", "corona", "--param", "0.2"],
        "cone-net": ["cone-net", "--N", "2", "--eps1", "0.3", "--trials", "2000"],
        "rrt-search": ["rrt-search", "--m", "2", "--delta", "0.05", "--budget", "400"],
        "paraproduct-demo": ["paraproduct-demo", "--depth", "7", "--seed", "4"],
    }
    for name, argv in runs.items():
        out1 = tmp_path / f"{name}-1.json"
        out2 = tmp_path / f"{name}-2.json"
        assert main(argv + ["--report", str(out1)]) == 0, name
        assert main(argv + ["--report", str(out2)]) == 0, name
        if out1.read_bytes() != out2.read_bytes():
            identical = False
    # inclusion-search writes three files into its --out directory
    argv = ["inclusion-search", "--n", "2", "--N", "2", "--L", "3", "--b2-cap", "3", "--budget", "40", "--seed", "5"]
    outs = [tmp_path / f"inclusion-{i}" for i in (1, 2)]
    for out in outs:
        assert main(argv + ["--out", str(out)]) == 0
    for name in ("report.json", "best_field.wf", "trend.csv"):
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            identical = False

    # field files round-trip bit-exactly at 17 significant digits
    roundtrip = True
    rng = np.random.default_rng(112)
    for _ in range(5):
        w = random_weight_field(rng, n=1, N=2, L=3, spread=1.5, mu_spread=0.8)
        p1, p2 = tmp_path / "rt1.wf", tmp_path / "rt2.wf"
        write_weight_field(p1, w)
        back = read_weight_field(p1)
        if not (np.array_equal(back.values, w.values) and np.array_equal(back.grid.mu, w.grid.mu)):
            roundtrip = False
        write_weight_field(p2, back)
        if p1.read_bytes() != p2.read_bytes():
            roundtrip = False
    _report(
        "6 reproducibility",
        identical and roundtrip,
        f"cli byte-identical {identical}, file round-trip {roundtrip}",
    )
