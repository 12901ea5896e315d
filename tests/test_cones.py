import math

import numpy as np
import pytest

from dwlab.cones import (
    MAX_NET_INDEX,
    ConeNet,
    build_net,
    coverage_check,
    maximizing_vector_bound,
    min_over_cone,
    required_alignment,
    sector_membership,
)

from conftest import oracle_circle_net, oracle_ring_net, unit_rows


def test_bound_orthogonal_case():
    lhs, rhs = maximizing_vector_bound(np.eye(2), [1.0, 0.0], [0.0, 1.0])
    assert lhs == 1.0 and abs(rhs) < 1e-15


def test_bound_rank_one_sharp():
    # A = diag(1, 0): |Ax| = |A| on x = e1 kills the root term, so the bound
    # reads |cos t| >= cos t and is sharp for t in [0, pi/2].
    a = np.diag([1.0, 0.0])
    for t in (0.0, 0.3, 1.0, 1.5, 2.0, 3.0):
        y = [math.cos(t), math.sin(t)]
        lhs, rhs = maximizing_vector_bound(a, [1.0, 0.0], y)
        assert abs(lhs - abs(math.cos(t))) < 1e-12
        assert abs(rhs - math.cos(t)) < 1e-12
        assert lhs >= rhs - 1e-12


def test_bound_equality_at_maximizer():
    a = np.diag([2.0, 1.0])
    lhs, rhs = maximizing_vector_bound(a, [1.0, 0.0], [1.0, 0.0])
    assert abs(lhs - rhs) < 1e-12


def test_bound_rejects_bad_input():
    with pytest.raises(ValueError, match="unit"):
        maximizing_vector_bound(np.eye(2), [2.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="zero"):
        maximizing_vector_bound(np.zeros((2, 2)), [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="2-d"):
        maximizing_vector_bound([3.0, 4.0], [1.0, 0.0], [0.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            maximizing_vector_bound([[1.0, 0.0], [0.0, bad]], [1.0, 0.0], [0.0, 1.0])


def test_bound_randomized(rng):
    for _ in range(2000):
        mp, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.standard_normal((mp, m)) * 10.0 ** rng.uniform(-2, 2)
        if np.all(a == 0.0):
            continue
        x = rng.standard_normal(m)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(m)
        y /= np.linalg.norm(y)
        lhs, rhs = maximizing_vector_bound(a, x, y)
        scale = np.linalg.svd(a, compute_uv=False)[0]
        assert lhs >= rhs - 1e-9 * scale


def test_net_one_dimensional():
    net = build_net(1, 0.3)
    assert net.size == 2
    assert net.vectors_at(np.arange(2)).tolist() == [[1.0], [-1.0]]
    assert net.cover_indices(np.array([[1.0], [-1.0]])).tolist() == [0, 1]


def test_net_circle_minimum_size():
    net = build_net(2, 0.5)
    assert required_alignment(0.5) == 0.9921875
    assert net.size >= 51
    assert net.certificate_cos >= net.required_cos


def test_net_sphere_certificate():
    net = build_net(3, 0.3, probes=50000)
    assert net.certificate_cos >= net.required_cos
    # every random direction has an aligned net vector
    rng = np.random.default_rng(5)
    probes = rng.standard_normal((20000, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    idx = net.cover_indices(probes)
    dots = np.einsum("ij,ij->i", probes, net.vectors_at(idx))
    assert dots.min() >= net.required_cos


def test_net_four_dimensional_smoke():
    net = build_net(4, 0.5, probes=4000)
    assert net.certificate_cos >= net.required_cos


@pytest.mark.parametrize("eps1", [0.05, 0.15, 0.3, 0.5])
def test_net_matches_circle_and_ring_oracles(eps1):
    rng = np.random.default_rng(int(eps1 * 100))
    for N, oracle in ((2, oracle_circle_net), (3, oracle_ring_net)):
        vectors, lookup = oracle(eps1)
        net = ConeNet(N, eps1)
        assert net.size == len(vectors)
        for start in range(0, net.size, 1 << 20):
            chunk = np.arange(start, min(start + (1 << 20), net.size))
            assert np.array_equal(net.vectors_at(chunk), vectors[chunk])
        probes = unit_rows(rng, 100_000, N)
        assert np.array_equal(net.cover_indices(probes), lookup(probes))


def test_net_brute_force_four_dimensional():
    # The N=4 eps1 0.4 net materialized: every vector is a unit vector found
    # by the lookup at its own index, and every probe has a net vector within
    # the cap, both by brute force over the whole net and through the lookup.
    net = ConeNet(4, 0.4)
    every = np.arange(net.size)
    vectors = net.vectors_at(every)
    assert 40_000 < net.size < 45_000
    assert np.max(np.abs(np.linalg.norm(vectors, axis=1) - 1.0)) < 1e-12
    assert np.array_equal(net.cover_indices(vectors), every)
    probes = unit_rows(np.random.default_rng(4), 10_000, 4)
    brute = np.concatenate([np.max(p @ vectors.T, axis=1) for p in np.split(probes, 40)])
    got = np.einsum("ij,ij->i", probes, net.vectors_at(net.cover_indices(probes)))
    assert brute.min() >= net.required_cos
    assert got.min() >= net.required_cos
    assert np.all(got <= brute + 1e-12)


@pytest.mark.parametrize("N,eps1", [(4, 0.15), (5, 0.4), (5, 0.15), (6, 0.5)])
def test_net_lookup_meets_required_cos(N, eps1):
    net = ConeNet(N, eps1)
    rng = np.random.default_rng(N)
    near_pole = rng.standard_normal((2000, N)) * 1e-4
    near_pole[:, -1] += 1.0
    probes = np.concatenate(
        [unit_rows(rng, 20_000, N), np.eye(N), -np.eye(N), near_pole, -near_pole]
    )
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    dots = np.einsum("ij,ij->i", probes, net.vectors_at(net.cover_indices(probes)))
    assert dots.min() >= net.required_cos


def test_net_size_is_counted_not_stored():
    # 3.2e9 vectors at N=5 eps1 0.15 are counted from the ring tables alone.
    net = ConeNet(5, 0.15)
    assert net.size == 3_203_054_654
    assert net.vectors_at(np.array([0, net.size - 1])).shape == (2, 5)
    with pytest.raises(ValueError, match="indices"):
        net.vectors_at(np.array([net.size]))


def test_net_too_large_to_walk_is_refused():
    for N, eps1 in ((6, 0.05), (5, 0.05), (12, 0.3)):
        with pytest.raises(ValueError, match=f"N={N}, eps1={eps1}") as err:
            ConeNet(N, eps1)
        assert str(MAX_NET_INDEX) in str(err.value)


def test_net_rejects_bad_eps():
    with pytest.raises(ValueError):
        build_net(2, 0.9)
    with pytest.raises(ValueError):
        build_net(0, 0.3)


def test_sector_membership_cases():
    v0 = np.array([1.0, 0.0])
    # rank one aligned with the axis: inside
    assert sector_membership(np.array([[1.0, 0.0]]), v0, 0.3)
    # orthogonal kernel: v = v0 lies in the cone and kills gamma
    assert not sector_membership(np.array([[0.0, 1.0]]), v0, 0.3)
    # one-dimensional: every nonzero matrix belongs
    assert sector_membership(np.array([[2.5]]), np.array([1.0]), 0.3)
    assert sector_membership(np.array([[-0.7]]), np.array([1.0]), 0.4)
    with pytest.raises(ValueError):
        sector_membership(np.zeros((1, 2)), v0, 0.3)


def test_min_over_cone_matches_direct_sampling(rng):
    # convex problem: projected search must not be beaten by brute sampling
    eps1 = 0.3
    for _ in range(20):
        gamma = rng.standard_normal((2, 3))
        v0 = rng.standard_normal(3)
        v0 /= np.linalg.norm(v0)
        val, arg = min_over_cone(gamma, v0, eps1, seed=1)
        # the reported minimizer is feasible
        assert arg @ v0 >= eps1 - 1e-9
        assert np.linalg.norm(arg) <= 1.0 / eps1 + 1e-9
        brute = rng.standard_normal((4000, 3))
        brute /= np.linalg.norm(brute, axis=1, keepdims=True)
        brute = brute * rng.uniform(eps1, 1.0 / eps1, size=(4000, 1))
        feas = brute[brute @ v0 >= eps1]
        if feas.size:
            assert val <= np.linalg.norm(feas @ gamma.T, axis=1).min() + 1e-9


def test_proof_tracking_bounds(rng):
    # If a net vector aligns with the top input direction, the two chained
    # lower bounds hold: |gamma v0| >= (1 - eps1^4/8)|gamma| and
    # |gamma v| >= (eps1^2 / 2)|v||gamma| on the truncated cone.
    eps1 = 0.3
    req = required_alignment(eps1)
    net = build_net(2, eps1)
    for _ in range(300):
        gamma = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3)
        norm = np.linalg.svd(gamma, compute_uv=False)[0]
        if norm == 0.0:
            continue
        _, _, vt = np.linalg.svd(gamma)
        v1 = vt[0]
        v0 = net.vectors_at(net.cover_indices(v1[None, :]))[0]
        assert v0 @ v1 >= req
        assert np.linalg.norm(gamma @ v0) >= (1 - eps1**4 / 8) * norm * (1 - 1e-12)
        for _ in range(20):
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            v *= rng.uniform(eps1, 1 / eps1)
            if v @ v0 < eps1:
                continue
            assert np.linalg.norm(gamma @ v) >= 0.5 * eps1**2 * np.linalg.norm(v) * norm * (
                1 - 1e-9
            )


def test_coverage_zero_failures(rng):
    for N, eps1 in ((1, 0.3), (2, 0.3), (3, 0.5), (4, 0.5)):
        net = build_net(N, eps1, probes=4000)
        assert coverage_check(net, 2000, seed=7) == 0
    with pytest.raises(ValueError, match="trials"):
        coverage_check(net, -5)


def test_coverage_rank_one_aligned():
    net = build_net(2, 0.3)
    for v in net.vectors_at(np.array([0, 5, 17])):
        assert sector_membership(np.outer([1.0], v), v, 0.3)
