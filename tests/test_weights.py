import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import grid, weights
from dwlab.grid import MOMENTS, Grid, WeightField, root_cube
from dwlab.weights import (
    CLASS_KEYS,
    RATIO_KEYS,
    box_averages,
    class_report,
    default_shifts,
    family_scan,
    ratio_kernel,
)

from conftest import (
    b2_constants,
    cube_ratios,
    det_chain_check,
    doubling_of,
    family_labels,
    full_kernel,
    oracle_b2_quadratic,
    oracle_b2_sampled,
    oracle_family_scan,
    oracle_inverse_norms,
    oracle_log_norm_masses,
    plan_rows,
    random_spd_cells,
    random_weight_field,
    svd_b2,
    unit_rows,
)


def two_cell_scalar(lo, hi):
    return WeightField(Grid(1, 1), np.array([lo, hi]).reshape(2, 1, 1))


def test_constant_field_all_ones():
    w = WeightField(Grid(1, 2), np.broadcast_to([[2.0, 1.0], [1.0, 2.0]], (4, 2, 2)).copy())
    rep = class_report(w, shifts=2)
    for key in ("b2_i", "b2_ii", "b2_iii", "b2_iv", "ainf_i", "ainf_ii", "a2", "thewest"):
        assert abs(getattr(rep, key) - 1.0) < 1e-12, key


def test_two_cell_scalar_values():
    w = two_cell_scalar(1.0, 4.0)
    b2i, b2ii, b2iii, b2iv = b2_constants(w, shifts=0)
    expect = math.sqrt(8.5) / 2.5
    assert abs(b2ii - expect) < 1e-12
    assert abs(b2i - b2ii) < 1e-12
    assert abs(b2iii - b2ii**2) < 1e-9
    assert abs(b2iv - expect) < 1e-12  # scalar: determinant ratio equals norm ratio
    rep = class_report(w, shifts=0)
    assert abs(rep.ainf_ii - 1.25) < 1e-12
    assert abs(rep.ainf_i - math.sqrt(1.25)) < 1e-12  # scalar identity
    assert abs(family_scan(w, ("thewest",), 0).sups["thewest"] - 2.125) < 1e-12


def test_det_chain_two_cell_frozen():
    w = two_cell_scalar(1.0, 4.0)
    chain = det_chain_check(w, root_cube(1))
    expected = (math.sqrt(8.5), 2.5, 2.0, 1.6, math.sqrt(32.0 / 17.0))
    assert np.allclose(chain, expected, atol=1e-12)
    # constant field: all five equal the determinant
    c = WeightField(Grid(1, 1), np.broadcast_to([[3.0]], (2, 1, 1)).copy())
    assert np.allclose(det_chain_check(c, root_cube(1)), [3.0] * 5, atol=1e-12)


def test_det_chain_random_never_violated(rng):
    for _ in range(300):
        w = random_weight_field(rng, n=1, N=int(rng.integers(1, 4)), L=2, spread=1.0, mu_spread=0.5)
        det_chain_check(w, root_cube(1))  # raises on violation


def test_b2_identities_random(rng):
    for _ in range(60):
        N = int(rng.integers(1, 4))
        w = random_weight_field(rng, n=1, N=N, L=2, spread=0.8, mu_spread=0.3)
        b2i, b2ii, b2iii, b2iv = b2_constants(w, shifts=1, directions=16, seed=3)
        assert abs(b2iii - b2ii**2) <= 1e-10 * max(1.0, b2ii**2)
        assert abs(b2i - b2ii) <= 1e-12 * max(1.0, b2ii)
        assert 1.0 - 1e-9 <= b2ii <= b2iv * (1 + 1e-12)
        assert b2iv <= b2ii**N * (1 + 1e-10)


def test_all_constants_at_least_one(rng):
    for _ in range(40):
        N = int(rng.integers(1, 4))
        w = random_weight_field(rng, n=1, N=N, L=2, spread=1.0, mu_spread=0.4)
        rep = class_report(w, shifts=1, directions=8, seed=1)
        for key in ("b2_i", "b2_ii", "b2_iii", "b2_iv", "ainf_i", "ainf_ii", "a2", "thewest"):
            assert getattr(rep, key) >= 1.0 - 1e-9, key


def test_thewest_product_bound(rng):
    # thewest <= (b2_iv * ainf_ii)^2 at the sup level
    for _ in range(25):
        w = random_weight_field(rng, n=1, N=2, L=2, spread=1.0)
        rep = class_report(w, shifts=1, directions=0)
        assert rep.thewest <= (rep.b2_iv * rep.ainf_ii) ** 2 * (1 + 1e-9)


def test_sup_monotone_in_shifts(rng):
    w = random_weight_field(rng, n=1, N=2, L=3, spread=0.9, mu_spread=0.4)
    reports = [class_report(w, shifts=k, directions=8, seed=5) for k in (0, 1, 2)]
    for key in ("b2_ii", "b2_iv", "ainf_i", "ainf_ii", "a2", "thewest"):
        vals = [getattr(r, key) for r in reports]
        assert vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12, key


def test_worst_cube_tracking():
    w = two_cell_scalar(1.0, 4.0)
    rep = class_report(w, shifts=0)
    assert rep.worst_cubes["b2_ii"] == "shift=0 level=0 pos=0"
    assert rep.cube_count == 3


def test_diagonal_ainf_product_structure(rng):
    # For diagonal fields the determinant factorizes, so the A-infinity ratio
    # on each cube is the product of the per-coordinate scalar ratios.
    d1 = np.exp(rng.standard_normal(8) * 0.5)
    d2 = np.exp(rng.standard_normal(8) * 0.5)
    vals = np.zeros((8, 2, 2))
    vals[:, 0, 0], vals[:, 1, 1] = d1, d2
    w = WeightField(Grid(1, 3), vals)
    s1 = WeightField(Grid(1, 3), d1.reshape(8, 1, 1))
    s2 = WeightField(Grid(1, 3), d2.reshape(8, 1, 1))
    for batch in w.grid.box_batches(0):
        r, r1, r2 = (
            ratio_kernel(box_averages(f, batch, MOMENTS), RATIO_KEYS)["ainf_ii"] for f in (w, s1, s2)
        )
        assert np.all(np.abs(r - r1 * r2) < 1e-10 * np.maximum(1.0, r))


def test_cube_ratios_brute_force_cross_check(rng):
    # independent evaluation of every averaged quantity on the root cube
    w = random_weight_field(rng, n=1, N=2, L=2, spread=0.8, mu_spread=0.5)
    g = w.grid
    mu = g.mu * g.cell_volume
    cells = w.values
    total = mu.sum()

    def avg(power):
        acc = np.zeros((2, 2))
        for c in range(4):
            ww, vv = np.linalg.eigh(cells[c])
            acc += (vv * ww**power) @ vv.T * mu[c]
        return acc / total

    avg1, avg2 = avg(1), avg(2)
    avg_lndet = sum(np.log(np.linalg.det(cells[c])) * mu[c] for c in range(4)) / total
    ww2, vv2 = np.linalg.eigh(avg2)
    transfer = (vv2 * np.sqrt(ww2)) @ vv2.T @ np.linalg.inv(avg1)
    expected_b2 = np.linalg.svd(transfer, compute_uv=False)[0]
    got = cube_ratios(w, root_cube(1))
    assert abs(got["b2_ii"] - expected_b2) < 1e-12
    assert abs(got["ainf_ii"] - np.linalg.det(avg1) / np.exp(avg_lndet)) < 1e-12
    assert abs(got["thewest"] - np.linalg.det(avg2) / np.exp(2 * avg_lndet)) < 1e-12
    assert abs(got["a2"] - np.linalg.det(avg1) * np.linalg.det(avg(-1))) < 1e-12


def test_two_dimensional_diagonal_factorization(rng):
    side = 4
    d1 = np.exp(rng.standard_normal((side, side)) * 0.4)
    d2 = np.exp(rng.standard_normal((side, side)) * 0.4)
    vals = np.zeros((side, side, 2, 2))
    vals[..., 0, 0], vals[..., 1, 1] = d1, d2
    w = WeightField(Grid(2, 2), vals)
    _, b2m, _, _ = b2_constants(w, shifts=1, directions=0)
    per_coord = [
        b2_constants(WeightField(Grid(2, 2), d.reshape(side, side, 1, 1)), shifts=1, directions=0)[1]
        for d in (d1, d2)
    ]
    assert abs(b2m - max(per_coord)) < 1e-12


# The keys that tie the condition on W^2 to its components: per cube
# thewest = (b2_iv * ainf_ii)^2 exactly, and identity_residual is the
# relative gap.
COROLLARY_KEYS = ("identity_residual", "thewest", "b2_iv", "ainf_ii", "b2_ii")


def scalar_b2(field, shifts, count, seed=0):
    """The b2_ii sup of the scalar weight |W(x) a| for each direction a of a
    family scan's set: the signed basis, then ``count`` draws from ``seed``."""
    out = []
    for a in weights._directions(field.N, count, seed):
        w_a = np.linalg.norm(np.einsum("...ij,j->...i", field.values, a), axis=-1)
        scalar = WeightField(field.grid, w_a[..., None, None])
        out.append(family_scan(scalar, ("b2_ii",), shifts, 0).sups["b2_ii"])
    return out


def scalar_ok(values, b2_ii, rel_tol=1e-9):
    """Every scalar reverse Hoelder constant is at most the matrix one."""
    return all(v <= max(1.0, b2_ii) * (1.0 + rel_tol) + rel_tol for v in values)


def test_corollary_constant_and_diagonal(rng):
    const = WeightField(Grid(1, 2), np.broadcast_to([[2.0, 0.5], [0.5, 1.0]], (4, 2, 2)).copy())
    sups = oracle_family_scan(const, COROLLARY_KEYS, 1, 4)[0]
    assert sups["identity_residual"] < 1e-12
    assert abs(max(1.0, sups["thewest"]) - 1.0) < 1e-12
    assert scalar_ok(scalar_b2(const, 1, 4), sups["b2_ii"])

    # diagonal field: the coordinate weight |W e_i| = w_i inherits its own
    # reverse Hoelder constant, which is at most the matrix constant
    d1 = np.exp(rng.standard_normal(8) * 0.6)
    vals = np.zeros((8, 2, 2))
    vals[:, 0, 0], vals[:, 1, 1] = d1, 1.0
    w = WeightField(Grid(1, 3), vals)
    sups = oracle_family_scan(w, COROLLARY_KEYS, 1, 0)[0]
    assert scalar_ok(scalar_b2(w, 1, 0), sups["b2_ii"])
    s1 = WeightField(Grid(1, 3), d1.reshape(8, 1, 1))
    assert b2_constants(s1, shifts=1, directions=0)[1] <= max(1.0, sups["b2_ii"]) + 1e-12


def test_corollary_random_scalar_bound(rng):
    for _ in range(20):
        w = random_weight_field(rng, N=2, L=2, spread=0.9, mu_spread=0.3)
        sups = oracle_family_scan(w, COROLLARY_KEYS, 1, 2, 11)[0]
        assert sups["identity_residual"] < 1e-10
        assert scalar_ok(scalar_b2(w, 1, 2, 11), sups["b2_ii"])


# Independent per-cell oracle for the batched family scan and doubling --------------


def _oracle_boxes(g, shifts, levels):
    """(lo, hi, descriptor) for every sampled cube, enumerated box by box."""
    for s_idx, ninths in enumerate(g.shift_vectors(shifts)):
        s = np.array(ninths) / 9.0
        for k in levels:
            h = 2.0**-k
            counts = [int(math.floor((1.0 - s[i]) / h + 1e-12)) for i in range(g.n)]
            for pos in itertools.product(*(range(c) for c in counts)):
                lo = s + np.array(pos) * h
                hi = lo + h
                if np.all(hi <= 1.0 + 1e-12):
                    yield lo, hi, f"shift={s_idx} level={k} pos={','.join(map(str, pos))}"


def _oracle_cells(g, lo, hi):
    """(cell, mu-mass of the cell inside the box) for every cell the box overlaps."""
    width = 2.0**-g.L
    for cell in itertools.product(range(g.side), repeat=g.n):
        frac = 1.0
        for i, c in enumerate(cell):
            frac *= max(0.0, min(hi[i], (c + 1) * width) - max(lo[i], c * width)) / width
        if frac > 0.0:
            yield cell, frac * g.mu[cell] * g.cell_volume


def _oracle_ratios(w, lo, hi, dirs):
    N = w.N
    cells = list(_oracle_cells(w.grid, lo, hi))
    total = sum(m for _, m in cells)

    def avg(fn):
        return sum(fn(w.values[c]) * m for c, m in cells) / total

    def power(p):
        def fn(mat):
            ww, vv = np.linalg.eigh(mat)
            return (vv * ww**p) @ vv.T

        return avg(fn)

    a1, a2, am1, am2 = power(1.0), power(2.0), power(-1.0), power(-2.0)
    lndet = avg(lambda mat: math.log(np.linalg.det(mat)))
    inv1 = np.linalg.inv(a1)
    ww2, vv2 = np.linalg.eigh(a2)
    sqrt2 = (vv2 * np.sqrt(ww2)) @ vv2.T
    ww1, vv1 = np.linalg.eigh(a1)
    inv_sqrt1 = (vv1 / np.sqrt(ww1)) @ vv1.T
    det1, det2 = np.linalg.det(a1), np.linalg.det(a2)
    b2 = np.linalg.svd(sqrt2 @ inv1, compute_uv=False)[0]
    qf = [avg(lambda mat, a=a: 0.5 * math.log(a @ np.linalg.solve(mat, a))) for a in dirs]
    return {
        "b2_i": b2,
        "b2_ii": b2,
        "b2_iii": np.max(np.abs(np.linalg.eigvalsh(inv1 @ a2 @ inv1))),
        "b2_iv": math.sqrt(det2) / det1,
        "ainf_i": max(math.exp(q) / np.linalg.norm(inv_sqrt1 @ a) for q, a in zip(qf, dirs)),
        "ainf_ii": det1 / math.exp(lndet),
        "a2": det1 * np.linalg.det(am1),
        "thewest": det2 / math.exp(2.0 * lndet),
        "chain": (
            math.sqrt(det2),
            det1,
            math.exp(lndet),
            1.0 / np.linalg.det(am1),
            1.0 / math.sqrt(np.linalg.det(am2)),
        ),
    }


def _oracle_directions(N, count, seed):
    """The scan's one direction set: the signed basis, then ``count`` unit draws."""
    extra = np.random.default_rng(seed).standard_normal((count, N))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.concatenate([np.eye(N), -np.eye(N), extra])


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2]),
    N=st.integers(1, 3),
    depth=st.integers(1, 3),
)
def test_batched_scan_matches_per_cell_oracle(seed, n, N, depth):
    rng = np.random.default_rng(seed)
    L = depth if n == 1 else min(depth, 2)
    # The constants are determinants and singular values of averaged matrices,
    # whose rounding grows with the condition number of avg W^2: at spread 0.8
    # an N=3 cell with cond(W^2) = 4e4 puts the kernel's eigenvalue-product
    # determinant and the oracle's LU determinant 2.8e-12 apart.  At spread 0.5
    # the two agree to 4e-14 over 160 sampled fields.
    w = random_weight_field(rng, n=n, N=N, L=L, spread=0.5, mu_spread=0.5)
    g = w.grid
    shifts = default_shifts(g)
    rep = class_report(w, shifts=shifts, directions=3, seed=seed)

    sups, worst, count = {}, {}, 0
    dirs = _oracle_directions(N, 3, seed)
    chains = [
        c
        for b in g.box_batches(shifts)
        for c in zip(*full_kernel(box_averages(w, b, MOMENTS), ("chain",))["chain"])
    ]
    for (lo, hi, desc), got in zip(_oracle_boxes(g, shifts, range(L + 1)), chains):
        r = _oracle_ratios(w, lo, hi, dirs)
        count += 1
        for key, val in r.items():
            if key != "chain" and (key not in sups or val > sups[key]):
                sups[key], worst[key] = val, desc
        assert all(_close(x, y) for x, y in zip(got, r["chain"])), (desc, got, r["chain"])
    assert rep.cube_count == count == len(chains)
    assert rep.worst_cubes == worst
    order = [d for *_, d in _oracle_boxes(g, shifts, range(L + 1))]
    assert family_labels(g, shifts) == order
    for key, val in sups.items():
        assert _close(getattr(rep, key), val), (key, getattr(rep, key), val)

    doubling = 0.0
    for lo, hi, _ in _oracle_boxes(g, shifts, range(L + 2)):
        h = hi - lo
        lo2, hi2 = np.clip(lo - h / 2.0, 0.0, 1.0), np.clip(hi + h / 2.0, 0.0, 1.0)
        mass = sum(m for _, m in _oracle_cells(g, lo, hi))
        doubling = max(doubling, sum(m for _, m in _oracle_cells(g, lo2, hi2)) / mass)
    assert _close(rep.doubling, doubling)


def _oracle_scan(w, shifts, dirs):
    """Sups, first worst boxes and box count of the per-cell oracle over the
    family, and the doubling constant over levels 0..L+1."""
    g = w.grid
    sups, worst, count = {}, {}, 0
    for lo, hi, desc in _oracle_boxes(g, shifts, range(g.L + 1)):
        count += 1
        for key, val in _oracle_ratios(w, lo, hi, dirs).items():
            if key != "chain" and (key not in sups or val > sups[key]):
                sups[key], worst[key] = val, desc
    sups["doubling"] = 0.0
    for lo, hi, _ in _oracle_boxes(g, shifts, range(g.L + 2)):
        h = hi - lo
        lo2, hi2 = np.clip(lo - h / 2.0, 0.0, 1.0), np.clip(hi + h / 2.0, 0.0, 1.0)
        mass = sum(m for _, m in _oracle_cells(g, lo, hi))
        ratio = sum(m for _, m in _oracle_cells(g, lo2, hi2)) / mass
        sups["doubling"] = max(sups["doubling"], ratio)
    return sups, worst, count


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2]),
    N=st.integers(1, 3),
    depth=st.integers(1, 3),
    keys=st.sets(st.sampled_from(CLASS_KEYS), min_size=1),
)
def test_key_subsets_match_full_scan_and_oracle(seed, n, N, depth, keys):
    # A scan asked for some keys gathers and solves less; each ratio's linear
    # algebra is the same whatever keys share it, so its sups equal the full
    # scan's, agree with the oracle, and its worst boxes are the same.
    rng = np.random.default_rng(seed)
    L = depth if n == 1 else min(depth, 2)
    w = random_weight_field(rng, n=n, N=N, L=L, spread=0.5, mu_spread=0.5)
    shifts = int(rng.integers(0, default_shifts(w.grid) + 1))
    full = family_scan(w, CLASS_KEYS, shifts, directions=3, seed=seed)
    lean = family_scan(WeightField(w.grid, w.values), keys, shifts, directions=3, seed=seed)
    oracle, worst, count = _oracle_scan(w, shifts, _oracle_directions(N, 3, seed))

    def close(a, b):
        return abs(a - b) <= 1e-13 * max(abs(a), abs(b))

    assert set(lean.sups) == keys
    assert lean.count == full.count == count
    assert lean.worst == {k: full.worst[k] for k in keys - {"doubling"}} == {
        k: worst[k] for k in keys - {"doubling"}
    }
    for key in keys:
        assert lean.sups[key] == full.sups[key], (key, lean.sups[key], full.sups[key])
        assert close(lean.sups[key], oracle[key]), (key, lean.sups[key], oracle[key])


@pytest.mark.parametrize(
    "keys, key, bound",
    [
        (("b2_i",), "b2_sampled", "b2_ii"),
        (("b2_ii", "thewest"), "b2_sampled", "b2_ii"),
        (("ainf_i",), "ainf_i", "ainf_i_jensen"),
        (CLASS_KEYS, "ainf_i", "ainf_i_jensen"),
    ],
)
def test_self_checks_run_with_their_keys(monkeypatch, keys, key, bound):
    real = weights.ratio_kernel

    def inflated(*args, **kwargs):
        out = real(*args, **kwargs)
        if key in out:
            out[key] = out[bound] * 2.0
        return out

    monkeypatch.setattr(weights, "ratio_kernel", inflated)
    w = random_weight_field(np.random.default_rng(2), n=1, N=2, L=2)
    with pytest.raises(AssertionError, match="on shift=0 level=0 pos=0$"):
        family_scan(w, keys, shifts=1)


def test_family_scan_rejects_unknown_keys(rng):
    w = random_weight_field(rng, n=1, N=2, L=1)
    for keys in (("chain",), ("thewest", "b2_v")):
        with pytest.raises(ValueError, match="unknown scan keys"):
            family_scan(w, keys)


def _oracle_jensen_and_basis(w, lo, hi):
    """Per box, from cell sums: the Jensen bound sqrt(lambda_max(W_Q^{1/2} (W^-1)_Q
    W_Q^{1/2})) and the basis-only ratio max_i exp(avg log|W^{-1/2} e_i|) / |W_Q^{-1/2} e_i|."""
    cells = list(_oracle_cells(w.grid, lo, hi))
    total = sum(m for _, m in cells)
    a1 = sum(w.values[c] * m for c, m in cells) / total
    am1 = sum(np.linalg.inv(w.values[c]) * m for c, m in cells) / total
    ww, vv = np.linalg.eigh(a1)
    root = (vv * np.sqrt(ww)) @ vv.T
    jensen = math.sqrt(np.linalg.eigvalsh(root @ am1 @ root)[-1])
    basis = max(
        math.exp(sum(0.5 * math.log(np.linalg.inv(w.values[c])[i, i]) * m for c, m in cells) / total)
        / math.sqrt(np.linalg.inv(a1)[i, i])
        for i in range(w.N)
    )
    return jensen, basis


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2]),
    N=st.integers(1, 3),
    depth=st.integers(1, 3),
)
def test_ainf_i_jensen_bound_nesting_and_basis(seed, n, N, depth):
    rng = np.random.default_rng(seed)
    L = depth if n == 1 else min(depth, 2)
    w = random_weight_field(rng, n=n, N=N, L=L, spread=0.8, mu_spread=0.5)
    g = w.grid
    shifts = default_shifts(g)
    dirs = _oracle_directions(N, 6, seed)
    got = np.concatenate(
        [
            ratio_kernel(box_averages(w, b, MOMENTS, dirs), RATIO_KEYS, dirs)["ainf_i"]
            for b in g.box_batches(shifts)
        ]
    )
    brute = [_oracle_jensen_and_basis(w, lo, hi) for lo, hi, _ in _oracle_boxes(g, shifts, range(L + 1))]
    jensen, basis = (np.array(x) for x in zip(*brute))
    assert np.all(got <= jensen * (1.0 + 1e-12))

    # The direction set is prefix-nested in its count, so the sup only grows.
    sups = [class_report(w, shifts, directions=k, seed=seed).ainf_i for k in (0, 1, 3, 6)]
    assert all(a <= b for a, b in zip(sups, sups[1:])), sups
    assert _close(sups[0], float(basis.max()))


def test_class_report_seeds_one_direction_stream(monkeypatch):
    # One direction set per scan: the number of generators built does not grow
    # with the number of sampled boxes.
    made = []
    real_rng, real_seq = np.random.default_rng, np.random.SeedSequence

    def counted(real):
        def make(*args, **kwargs):
            made.append(real)
            return real(*args, **kwargs)

        return make

    monkeypatch.setattr(np.random, "default_rng", counted(real_rng))
    monkeypatch.setattr(np.random, "SeedSequence", counted(real_seq))
    w = random_weight_field(np.random.default_rng(4), n=2, N=2, L=3)
    made.clear()
    rep = class_report(w)
    assert rep.cube_count > 50
    assert len(made) == 1


@pytest.mark.parametrize(
    "n, L",
    [(1, L) for L in range(1, 8)] + [(2, L) for L in range(1, 6)] + [(3, 1), (3, 2)],
)
def test_doubling_uniform_grid_is_two_to_the_n(n, L):
    g = Grid(n, L)
    assert doubling_of(g, default_shifts(g)) == 2.0**n


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2]), depth=st.integers(1, 3))
def test_integer_bands_match_float_overlaps(seed, n, depth):
    # Every band entry is the exact overlap in lattice steps: divided by the
    # 36 steps of a cell it is the float overlap fraction of the oracle, on the
    # translated boxes and on their doubles.  The start cell of each box's
    # band along each axis, from the family's plan, names the cell of every
    # band entry.
    g = Grid(n, depth if n == 1 else min(depth, 2))
    shifts = int(np.random.default_rng(seed).integers(0, 3**n + 6**n - 2**n))
    boxes = list(_oracle_boxes(g, shifts, range(g.L + 2)))
    batches = list(g.box_batches(shifts, range(g.L + 2)))
    for doubled in (False, True):
        got = []
        for batch in batches:
            starts, bands = zip(*plan_rows(batch.family.plan(batch.rows, doubled)))
            for box in itertools.product(*(range(len(b)) for b in bands)):
                fracs = {}
                for band_pos in itertools.product(*(range(b.shape[1]) for b in bands)):
                    cell = tuple(int(s[i] + j) for s, i, j in zip(starts, box, band_pos))
                    frac = math.prod(b[i, j] for b, i, j in zip(bands, box, band_pos)) / 36**n
                    if frac:
                        fracs[cell] = frac
                got.append(fracs)
        assert len(got) == len(boxes)
        for fracs, (lo, hi, desc) in zip(got, boxes):
            if doubled:
                h = hi - lo
                lo, hi = np.clip(lo - h / 2.0, 0.0, 1.0), np.clip(hi + h / 2.0, 0.0, 1.0)
            want = {c: m / g.cell_volume for c, m in _oracle_cells(g, lo, hi)}
            assert fracs.keys() == want.keys(), desc
            assert all(abs(fracs[c] - want[c]) <= 1e-15 for c in want), desc


def test_ratio_kernel_takes_every_lu_determinant_in_one_call(monkeypatch):
    # The chain reads four determinants and the screen two; each kernel makes
    # one batched det call, and every value is the per-stack LU determinant.
    w = random_weight_field(np.random.default_rng(8), n=2, N=3, L=3, spread=0.8, mu_spread=0.5)
    avg = dict(zip(weights.MOMENTS, w.average_stacks(weights.MOMENTS)))
    want = {m: np.linalg.det(avg[m]) for m in ("w", "w2", "winv", "winv2")}
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(len(a)) or det(a))
    chain = full_kernel(avg, ("chain",))["chain"]
    assert calls == [4 * len(avg["w"])]
    expected = (
        np.sqrt(want["w2"]),
        want["w"],
        np.exp(avg["logdet"]),
        1.0 / want["winv"],
        1.0 / np.sqrt(want["winv2"]),
    )
    assert all(np.array_equal(a, b) for a, b in zip(chain, expected))
    # Whatever keys share the kernel, each determinant ratio has the bits of
    # one LU call per moment.
    expected = {
        "b2_iv": np.sqrt(want["w2"]) / want["w"],
        "ainf_ii": want["w"] / np.exp(avg["logdet"]),
        "a2": want["w"] * want["winv"],
        "thewest": want["w2"] / np.exp(2.0 * avg["logdet"]),
    }
    for keys, moments in (
        (("b2_iv", "ainf_ii"), 2),
        (("thewest",), 1),
        (("a2", "b2_i"), 2),
        (("ainf_ii", "b2_iii"), 1),
        (RATIO_KEYS, 3),
    ):
        calls.clear()
        r = weights.ratio_kernel(avg, keys)
        assert calls == [moments * len(avg["w"])], keys
        for key in expected.keys() & set(keys):
            assert np.array_equal(r[key], expected[key]), (keys, key)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    N=st.integers(1, 4),
    depth=st.integers(1, 4),
    shifts=st.integers(0, 3),
)
def test_b2_i_and_ii_match_the_svd_oracle(seed, n, N, depth, shifts):
    # b2_i = b2_ii, the square root of the top eigenvalue of the b2_iii stack,
    # is the top singular value of (W^2)_Q^{1/2} W_Q^{-1} on every box.  Both
    # paths lose digits as W_Q's condition number grows (at spread 1.0 they
    # differ by up to about 1.6e-10), so the fields keep the default spread.
    rng = np.random.default_rng(seed)
    w = random_weight_field(rng, n=n, N=N, L=min(depth, {1: 4, 2: 3, 3: 2}[n]), mu_spread=0.5)
    for batch in w.grid.box_batches(shifts):
        avg = box_averages(w, batch, ("w", "w2"))
        r = ratio_kernel(avg, ("b2_i", "b2_ii"))
        want = svd_b2(avg)
        assert np.array_equal(r["b2_i"], r["b2_ii"])
        assert np.all(np.abs(r["b2_i"] - want) <= 1e-12 * want), batch.descriptor(0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 20),
    B=st.integers(1, 40),
    D=st.integers(1, 80),
)
def test_ainf_i_matches_the_old_form_bit_for_bit(seed, N, B, D):
    # ainf_i carries the bits of the (B, D, N) form summed over its last axis at
    # every N: also where numpy sums that axis pairwise (N >= 8), and where BLAS
    # rounds a transposed product differently (N >= 17).
    rng = np.random.default_rng(seed)
    avg = {"w": random_spd_cells(rng, B, N, spread=0.8), "winv": random_spd_cells(rng, B, N)}
    avg["lognorm"] = rng.standard_normal((B, D))
    dirs = unit_rows(rng, D, N)
    ew, vv = np.linalg.eigh(avg["w"])
    inv_w = (vv / ew[:, None, :]) @ vv.transpose(0, 2, 1)
    want = np.max(np.exp(avg["lognorm"]) / oracle_inverse_norms(dirs, inv_w), axis=-1)
    assert np.array_equal(weights.ratio_kernel(avg, ("ainf_i",), dirs)["ainf_i"], want)


@pytest.mark.parametrize("N", [7, 8])
def test_ainf_i_sums_in_turn_below_eight_terms_only(N):
    # Boxes scaled by 1e-150 or 1e150: numpy sums the last axis of the
    # (B, D, N) form in turn at N = 7 and pairwise at N = 8, where the sums in
    # turn move the sup on some boxes, and ainf_i keeps the bits of both.
    rng = np.random.default_rng(N)
    scale = 10.0 ** rng.choice([-150.0, 150.0], (64, 1, 1))
    avg = {"w": random_spd_cells(rng, 64, N, spread=0.8) * scale}
    avg["winv"] = np.linalg.inv(avg["w"])
    dirs = unit_rows(rng, 16, N)
    avg["lognorm"] = np.zeros((64, len(dirs)))
    ew, vv = np.linalg.eigh(avg["w"])
    inv_w = (vv / ew[:, None, :]) @ vv.transpose(0, 2, 1)
    prod = (dirs @ inv_w) * dirs
    in_turn = functools.reduce(np.add, np.moveaxis(prod, -1, 0))
    want = np.max(1.0 / oracle_inverse_norms(dirs, inv_w), axis=-1)
    moved = np.max(1.0 / np.sqrt(in_turn), axis=-1) != want
    assert np.any(moved) == (N == 8)
    assert np.array_equal(weights.ratio_kernel(avg, ("ainf_i",), dirs)["ainf_i"], want)


@pytest.mark.parametrize("n,L", [(1, 0), (1, 7), (2, 0), (2, 4), (3, 2)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 9])
def test_log_norm_masses_built_in_runs_match_the_whole_grid_product(monkeypatch, n, L, N):
    # Budgets of 1 and 3 D floats give runs of two cells, 7 D runs of six
    # (the last one short) and the default longer runs; each keeps the bits of
    # one product over the whole grid, on one-cell grids too.
    w = random_weight_field(np.random.default_rng(L * 10 + N), n=n, N=N, L=L, spread=1.0, mu_spread=0.5)
    dirs = weights._directions(N, 64, N)
    want = oracle_log_norm_masses(w, dirs)
    for budget in (1, 3 * len(dirs), 7 * len(dirs), grid._BATCH_FLOATS):
        monkeypatch.setattr(grid, "_BATCH_FLOATS", budget)
        w._cell_cache.clear()
        assert np.array_equal(w.log_norm_masses(dirs), want), budget


def test_log_norm_masses_hold_the_output_and_one_run():
    # The build's peak is the (cells, D) output plus about one run of its
    # product, far from the three cells x D arrays of a whole-grid build.
    w = random_weight_field(np.random.default_rng(0), n=2, N=2, L=7)
    dirs = weights._directions(2, 64, 0)
    out = (2**14) * len(dirs) * 8
    run = grid._BATCH_FLOATS * 8
    assert out > 4 * run
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        w.log_norm_masses(dirs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out < peak <= out + 1.2 * run


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2]),
    N=st.integers(1, 4),
    count=st.integers(0, 40),
)
def test_sampled_ratios_of_the_kernel_match_their_first_form(seed, n, N, count):
    # b2_sampled, now a Rayleigh quotient of (W^2)_Q and W_Q, stays within
    # 1e-12 of the norm ratio through the eigh root and below the operator
    # norm, and within 1e-13 of the quadratic forms taken one cube and one
    # direction at a time, times their condition: a form whose terms cancel
    # loses the digits they share, in both.  ainf_i is bit for bit the
    # (B, D, N) form.
    rng = np.random.default_rng(seed)
    w = random_weight_field(rng, n=n, N=N, L=3 if n == 1 else 2, spread=1.0, mu_spread=0.5)
    avg = dict(zip(("w", "w2", "winv"), w.average_stacks(("w", "w2", "winv"))))
    dirs = weights._directions(N, count, seed)
    avg["lognorm"] = rng.standard_normal((len(avg["w"]), len(dirs)))
    r = weights.ratio_kernel(avg, ("b2_i", "ainf_i"), dirs)
    old = oracle_b2_sampled(avg, dirs)
    assert np.all(np.abs(r["b2_sampled"] - old) <= 1e-12 * old)
    quad, cond = oracle_b2_quadratic(avg, dirs)
    assert np.all(np.abs(r["b2_sampled"] - quad) <= 1e-13 * cond * quad)
    assert np.all(r["b2_sampled"] <= r["b2_ii"] * (1.0 + 1e-9))
    ew, vv = np.linalg.eigh(avg["w"])
    inv_w = (vv / ew[:, None, :]) @ vv.transpose(0, 2, 1)
    want = np.max(np.exp(avg["lognorm"]) / oracle_inverse_norms(dirs, inv_w), axis=-1)
    assert np.array_equal(r["ainf_i"], want)


@pytest.mark.parametrize("corrupt", ["eigvalsh", "eigh"])
def test_b2_sampled_checks_the_eigenvalues_of_the_b2_stack(monkeypatch, corrupt):
    # An eigvalsh that quarters the eigenvalues of the b2_iii stack, or an eigh
    # that doubles those of W_Q (so W_Q^{-1} halves and the stack quarters),
    # shrinks b2_i by half.  b2_sampled reads the averages themselves, so it
    # flags every box, where the true kernel flags none.
    w = random_weight_field(np.random.default_rng(9), n=1, N=3, L=3, spread=0.8)
    avg = dict(zip(("w", "w2"), w.average_stacks(("w", "w2"))))
    dirs = weights._directions(3, 30, 0)
    r = weights.ratio_kernel(avg, ("b2_i",), dirs)
    assert np.all(r["b2_sampled"] <= r["b2_ii"] * (1.0 + 1e-9))
    real = getattr(np.linalg, corrupt)

    def corrupted(a):
        if corrupt == "eigvalsh":
            return real(a) / 4.0
        ew, vv = real(a)
        return (ew * 2.0, vv) if a is avg["w"] else (ew, vv)

    monkeypatch.setattr(np.linalg, corrupt, corrupted)
    bad = weights.ratio_kernel(avg, ("b2_i",), dirs)
    assert np.array_equal(bad["b2_sampled"], r["b2_sampled"])
    assert np.all(bad["b2_sampled"] > bad["b2_ii"] * (1.0 + 1e-9))


@pytest.mark.parametrize("N", [1, 2, 3, 9, 17])
def test_direction_stacks_fit_the_batch_budget(N):
    # Per box, the direction keys hold at most 1 + 2/N arrays of (D, N) floats,
    # the (N + 2) D floats family_scan's kernel chunks count: the kernel's peak
    # grows with D and the box count together by no more, counting the (B, D)
    # log-norm averages it reads (tracemalloc also counts a few bytes of
    # Python objects).  They are ainf_i's (B, D, N) product and one (B, D) row
    # next to the log-norms; b2_sampled's (B, D) forms are freed before it.
    w = random_weight_field(np.random.default_rng(N), n=1, N=N, L=8)
    keys = [k for k in weights.RATIO_KEYS if k in CLASS_KEYS]
    moments = weights._moments(keys)

    def peak(rows, D):
        avg = {m: s[:rows].copy() for m, s in zip(moments, w.average_stacks(moments))}
        avg["lognorm"] = np.zeros((rows, D))
        dirs = weights._directions(N, D - 2 * N, 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            weights.ratio_kernel(avg, keys, dirs)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def growth(rows):
        return peak(rows, 1500) - peak(rows, 500)

    per_box = (growth(256) - growth(128)) / (128 * 1000 * N * 8)
    assert per_box + 1.0 / N <= 1.0 + 2.0 / N + 1e-3


_SCAN_KEYS = sorted(weights._SCAN_KEYS)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    N=st.sampled_from([1, 2, 3, 4, 9]),
    depth=st.integers(1, 6),
    keys=st.sets(st.sampled_from(_SCAN_KEYS), min_size=1),
    shifts=st.integers(0, 2),
    directions=st.sampled_from([0, 5, 64]),
)
def test_family_scan_matches_the_per_batch_oracle(seed, n, N, depth, keys, shifts, directions):
    # One kernel call per chunk of gather batches gives the sups, worst boxes
    # and count of one call per batch, bit for bit.
    rng = np.random.default_rng(seed)
    L = min(depth, {1: 6, 2: 3, 3: 2}[n])
    w = random_weight_field(rng, n=n, N=N, L=L, spread=0.8, mu_spread=0.5)
    want = oracle_family_scan(w, keys, shifts, directions, seed)
    assert family_scan(w, keys, shifts, directions, seed) == want


def _fresh_field(seed, n, N, L):
    """The same random field at every call, with no memoised scans."""
    return random_weight_field(np.random.default_rng(seed), n=n, N=N, L=L, mu_spread=0.5)


def _record_kernel_calls(monkeypatch):
    """Patch ``weights.box_averages`` and ``weights.ratio_kernel`` to log, in
    order, ``("batch", boxes)`` and ``("kernel", rows, avg, directions)``."""
    events = []
    averages, kernel = weights.box_averages, weights.ratio_kernel

    def logged_averages(field, batch, *args, **kwargs):
        events.append(("batch", len(batch)))
        return averages(field, batch, *args, **kwargs)

    def logged_kernel(avg, keys, directions=None):
        events.append(("kernel", len(avg[next(iter(avg))]), avg, directions))
        return kernel(avg, keys, directions)

    monkeypatch.setattr(weights, "box_averages", logged_averages)
    monkeypatch.setattr(weights, "ratio_kernel", logged_kernel)
    return events


@pytest.mark.parametrize(
    "n, N, L, keys, one_call",
    [
        (1, 3, 7, CLASS_KEYS, False),
        (2, 2, 4, CLASS_KEYS, False),
        (1, 9, 5, ("ainf_i", "thewest"), False),
        (2, 2, 4, ("thewest", "doubling"), True),
        (3, 1, 3, ("b2_iv",), True),
    ],
)
def test_kernel_chunks_stay_within_the_batch_budget(monkeypatch, n, N, L, keys, one_call):
    # Every kernel call holds whole gather batches, at most _BATCH_FLOATS
    # floats (its boxes times the averages it reads plus (N + 2) D floats of
    # direction stacks per box) unless it holds one batch alone, and a chunk is run only when
    # the next batch would take it past the budget.  Scans without direction
    # keys hold a few floats per box and run the kernel once.
    events = _record_kernel_calls(monkeypatch)
    family_scan(_fresh_field(L, n, N, L), keys, shifts=2)
    chunks, pending = [], []
    for event in events:
        if event[0] == "batch":
            pending.append(event[1])
            continue
        _, rows, avg, dirs = event
        D = 0 if dirs is None else len(dirs)
        per_box = sum(a.size for a in avg.values()) / rows + (N + 2) * D
        assert rows == sum(pending)
        assert len(pending) == 1 or rows * per_box <= grid._BATCH_FLOATS
        chunks.append((rows, per_box, pending))
        pending = []
    assert not pending and (len(chunks) == 1) == one_call
    for (rows, per_box, _), (_, _, batches) in zip(chunks, chunks[1:]):
        assert (rows + batches[0]) * per_box > grid._BATCH_FLOATS


def _mark_boxes(monkeypatch, marked, key, value):
    """Patch ``weights.ratio_kernel`` to set ``key`` to ``value(out)`` on the
    boxes whose (W_Q)_00 is in ``marked``."""
    kernel = weights.ratio_kernel

    def marking(avg, keys, directions=None):
        out = kernel(avg, keys, directions)
        hit = np.isin(avg["w"][:, 0, 0], marked)
        out[key][hit] = value(out)[hit]
        return out

    monkeypatch.setattr(weights, "ratio_kernel", marking)


def test_a_self_check_in_a_later_chunk_names_the_oracles_box(monkeypatch):
    events = _record_kernel_calls(monkeypatch)
    family_scan(_fresh_field(4, 1, 3, 7), CLASS_KEYS, shifts=1)
    chunks = [e[2]["w"][:, 0, 0] for e in events if e[0] == "kernel"]
    assert len(chunks) >= 3
    # Boxes in the middle of the second chunk and at the start of the third.
    marked = np.concatenate([chunks[1][len(chunks[1]) // 2 :], chunks[2][:3]])
    assert not np.isin(chunks[0], marked).any()
    monkeypatch.undo()
    _mark_boxes(monkeypatch, marked, "b2_sampled", lambda out: out["b2_ii"] * 2.0)
    with pytest.raises(AssertionError, match="sampled direction ratio") as want:
        oracle_family_scan(_fresh_field(4, 1, 3, 7), CLASS_KEYS, 1)
    with pytest.raises(AssertionError, match="sampled direction ratio") as got:
        family_scan(_fresh_field(4, 1, 3, 7), CLASS_KEYS, shifts=1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("at", [0, 1])
def test_a_nan_ratio_stops_the_sup_as_the_per_batch_scan_did(monkeypatch, at):
    # thewest is inf / inf = NaN where W^2 overflows.  A NaN in a batch's
    # argmax becomes the sup in the first batch and hides its whole batch in a
    # later one; one chunk holding many batches keeps both rules.
    events = _record_kernel_calls(monkeypatch)
    keys = ("thewest", "b2_iv")
    family_scan(_fresh_field(6, 2, 2, 3), keys, shifts=1)
    batches = [e[1] for e in events if e[0] == "batch"]
    (_, rows, avg, _), = [e for e in events if e[0] == "kernel"]
    assert rows == sum(batches) and len(batches) > 3
    # A box of the first batch, or of the fourth and of the sixth.
    start = np.cumsum([0] + batches)
    marked = avg["w"][[0] if at == 0 else [start[3] + 1, start[5]], 0, 0]
    monkeypatch.undo()
    _mark_boxes(monkeypatch, marked, "thewest", lambda out: np.full(len(out["thewest"]), np.nan))
    want = oracle_family_scan(_fresh_field(6, 2, 2, 3), keys, 1)
    got = family_scan(_fresh_field(6, 2, 2, 3), keys, shifts=1)
    assert repr(got) == repr(type(got)(*want))
    assert np.isnan(got.sups["thewest"]) == (at == 0)
