import numpy as np
import pytest

from dwlab import rrt
from dwlab.rrt import (
    conclusion_value,
    delta_of_eps_curve,
    hypothesis_margin,
    worst_case_search,
)

from conftest import random_spd_cells


def test_margin_examples():
    assert hypothesis_margin(np.eye(3), np.eye(3)) == 0.0
    assert abs(hypothesis_margin(np.diag([0.9, 1.2]), np.eye(2)) - 0.2) < 1e-12
    # scalar: A = (1+d) B gives margin d
    assert abs(hypothesis_margin([[1.3 * 2.0]], [[2.0]]) - 0.3) < 1e-12


def test_conclusion_examples(rng):
    assert conclusion_value(np.eye(2), np.eye(2)) == 0.0
    s = rng.standard_normal((3, 3))
    s = (s + s.T) / 2.0
    t = 0.05
    got = conclusion_value(np.eye(3) + t * s, np.eye(3))
    assert abs(got - t * np.max(np.abs(np.linalg.eigvalsh(s)))) < 1e-10
    with pytest.raises(ValueError):
        conclusion_value(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        conclusion_value(-np.eye(2), np.eye(2))


def test_one_dimensional_identity(rng):
    for _ in range(200):
        a, b = np.exp(rng.standard_normal(2))
        assert abs(hypothesis_margin([[a]], [[b]]) - conclusion_value([[a]], [[b]])) < 1e-12
        assert abs(hypothesis_margin([[a]], [[b]]) - abs(a - b) / b) < 1e-12


def test_margin_below_conclusion(rng):
    for _ in range(300):
        m = int(rng.integers(1, 5))
        a = random_spd_cells(rng, 1, m, spread=0.7)[0]
        b = random_spd_cells(rng, 1, m, spread=0.7)[0]
        assert hypothesis_margin(a, b) <= conclusion_value(a, b) + 1e-9


def test_reverse_triangle_converse(rng):
    for _ in range(500):
        m = int(rng.integers(1, 5))
        a = random_spd_cells(rng, 1, m, spread=0.8)[0]
        b = random_spd_cells(rng, 1, m, spread=0.8)[0]
        x = rng.standard_normal(m)
        lhs = abs(np.linalg.norm(a @ x) - np.linalg.norm(b @ x))
        rhs = np.linalg.norm(a @ x - b @ x)
        assert lhs <= rhs * (1 + 1e-12) + 1e-15


def test_search_zero_delta():
    inst = worst_case_search(2, 0.0, budget=10, seed=0)
    assert inst.epsilon_measured == 0.0 and np.allclose(inst.a, inst.b)


@pytest.mark.parametrize("budget,calls", [(0, 50), (10, 50), (49, 50), (50, 100), (100, 150)])
def test_search_budget_counts_steps(monkeypatch, budget, calls):
    # One evaluation of each restart's initial pair, then budget // 50 steps each.
    seen = []
    real = rrt.conclusion_value
    monkeypatch.setattr(rrt, "conclusion_value", lambda a, b: seen.append(1) or real(a, b))
    worst_case_search(2, 0.1, budget=budget, seed=0)
    assert len(seen) == calls


def test_search_guards():
    with pytest.raises(ValueError):
        worst_case_search(1, 0.1)
    with pytest.raises(ValueError):
        worst_case_search(2, 1.5)
    with pytest.raises(ValueError, match="budget"):
        worst_case_search(2, 0.1, budget=-3)
    with pytest.raises(ValueError, match="budget"):
        delta_of_eps_curve(2, [0.1], budget=-3)


def test_search_beats_scalar_witness():
    # Embedding A = (1+delta) B realizes epsilon = delta, so the search
    # result must be at least delta and stay feasible.
    inst = worst_case_search(2, 0.1, budget=3000, seed=2)
    assert inst.epsilon_measured >= 0.1 - 1e-9
    assert inst.delta_measured <= 0.1 + 1e-9


def test_search_monotone_in_delta():
    vals = [
        worst_case_search(2, d, budget=2000, seed=5).epsilon_measured
        for d in (0.02, 0.05, 0.1)
    ]
    assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9


def test_search_deterministic_and_jobs_agree():
    a = worst_case_search(2, 0.07, budget=800, seed=11, jobs=1)
    b = worst_case_search(2, 0.07, budget=800, seed=11, jobs=1)
    assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)
    c = worst_case_search(2, 0.07, budget=800, seed=11, jobs=2)
    assert np.array_equal(a.a, c.a) and a.epsilon_measured == c.epsilon_measured


def test_curve_one_dimensional_identity():
    rows = delta_of_eps_curve(1, [0.1, 0.25, 0.5])
    for row in rows:
        assert row["delta"] == row["eps"]


def test_curve_properties():
    rows = delta_of_eps_curve(2, [0.1, 0.3], budget=600, seed=3, bisect_steps=5)
    deltas = [r["delta"] for r in rows]
    assert all(r["delta"] <= r["eps"] + 1e-12 for r in rows)
    assert deltas == sorted(deltas)
    assert all(r["worst"] <= r["eps"] + 1e-12 for r in rows)
