import math

import numpy as np
import pytest

from dwlab.cones import (
    NetInfeasibleError,
    build_net,
    coverage_check,
    maximizing_vector_bound,
    min_over_cone,
    required_alignment,
    sector_membership,
)


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
    assert sorted(net.vectors.ravel()) == [-1.0, 1.0]


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
    dots = np.einsum("ij,ij->i", probes, net.vectors[idx])
    assert dots.min() >= net.required_cos


def test_net_four_dimensional_smoke():
    net = build_net(4, 0.5, probes=4000)
    assert net.certificate_cos >= net.required_cos


def test_net_budget_error():
    with pytest.raises(NetInfeasibleError, match="budget"):
        build_net(4, 0.2, probes=2000, max_vectors=500)


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
        v0 = net.vectors[net.cover_index(v1)]
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


def test_coverage_rank_one_aligned():
    net = build_net(2, 0.3)
    for j in (0, 5, 17):
        gamma = np.outer([1.0], net.vectors[j])
        assert sector_membership(gamma, net.vectors[j], 0.3)
