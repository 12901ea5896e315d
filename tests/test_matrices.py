"""Cell-matrix contracts: positivity rejection, the spectral square root,
log-determinants, the Loewner order and the operator norm.

They are carried by ``WeightField`` (cell checks and cell functions),
``stopping.loewner_geq`` and ``cones.maximizing_vector_bound``, all on
``numpy.linalg``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab.cones import maximizing_vector_bound
from dwlab.grid import Grid, WeightField
from dwlab.stopping import loewner_geq

from conftest import random_spd_cells


def one_cell(m):
    """Weight field of a single finest cell holding ``m``."""
    return WeightField(Grid(1, 0), np.asarray(m, dtype=float)[None])


def cell_sqrt(m):
    return one_cell(m).cell_power(0.5)[0]


def test_sqrt_identity_and_diagonal():
    w = WeightField(Grid(1, 1), np.array([np.eye(2), np.diag([4.0, 9.0])]))
    roots = w.cell_power(0.5)
    assert np.allclose(roots[0], np.eye(2))
    assert np.allclose(roots[1], np.diag([2.0, 3.0]))


def test_sqrt_spectral_hand_case():
    # Eigenpairs of [[2,1],[1,2]]: 1 on (1,-1)/sqrt2 and 3 on (1,1)/sqrt2,
    # so the root is [[(1+sqrt3)/2, (sqrt3-1)/2], [...]].
    s = cell_sqrt([[2.0, 1.0], [1.0, 2.0]])
    r3 = math.sqrt(3.0)
    expected = np.array([[(1 + r3) / 2, (r3 - 1) / 2], [(r3 - 1) / 2, (1 + r3) / 2]])
    assert np.allclose(s, expected, atol=1e-12)
    assert np.allclose(s @ s, [[2, 1], [1, 2]], atol=1e-12)


def test_op_norm_examples():
    with pytest.raises(ValueError, match="zero"):
        maximizing_vector_bound(np.zeros((2, 3)), [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    # At a maximizing unit vector v both sides read |Av| = |A|.
    e2 = [0.0, 1.0]
    for a, norm in ((np.diag([1.0, 3.0]), 3.0), (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)):
        lhs, rhs = maximizing_vector_bound(a, e2, e2)
        assert abs(lhs - norm) < 1e-12 and abs(rhs - norm) < 1e-12


def test_log_det_examples():
    def log_det(m):
        return float(one_cell(m).cell_log_det()[0])

    assert abs(log_det(np.eye(4))) < 1e-14
    assert abs(log_det(np.diag([1.0, 4.0])) - math.log(4.0)) < 1e-12
    assert abs(log_det([[2.0, 1.0], [1.0, 2.0]]) - math.log(3.0)) < 1e-12
    assert abs(math.exp(log_det(np.diag([1.0, 4.0]))) - 4.0) < 1e-10 * 4.0


def test_loewner_examples():
    assert loewner_geq(np.eye(2), np.eye(2), 0.0)
    assert not loewner_geq(np.diag([2.0, 2.0]), np.diag([1.0, 3.0]), 0.0)
    assert loewner_geq(np.diag([1.0, 3.0]), np.diag([1.0, 3.0]), 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        loewner_geq(np.eye(2), np.eye(3))


def test_construction_error_names_eigenvalue():
    with pytest.raises(ValueError, match="not positive definite"):
        one_cell([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="not positive definite"):
        one_cell(np.zeros((2, 2)))


def test_immutable():
    w = one_cell(np.eye(2))
    with pytest.raises(ValueError):
        w.values[0, 0, 0] = 5.0


def test_sqrt_squares_back(rng):
    mats = random_spd_cells(rng, 60, 3, spread=1.0)
    for m in mats:
        s = cell_sqrt(m)
        scale = np.linalg.norm(m, 2)
        assert np.max(np.abs(s @ s - m)) <= 1e-10 * scale


def test_expanding_matrix_norm_det_sandwich(rng):
    # For symmetric A with all eigenvalues >= 1:
    # 1 <= |A| <= det(A) = exp(log_det) <= |A|^N.
    for _ in range(60):
        n = int(rng.integers(1, 5))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = 1.0 + rng.uniform(0.0, 3.0, size=n)
        a = (q * eigs) @ q.T
        w = one_cell(a)
        top = w.cell_eigvecs[0][:, -1]
        nrm = maximizing_vector_bound(a, top, top)[0]
        det = math.exp(float(w.cell_log_det()[0]))
        assert 1.0 - 1e-12 <= nrm <= det * (1 + 1e-12)
        assert det <= nrm**n * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_sqrt_roundtrip_property(dim, seed):
    rng = np.random.default_rng(seed)
    m = random_spd_cells(rng, 1, dim, spread=0.8)[0]
    s = cell_sqrt(m)
    assert np.max(np.abs(s @ s - m)) <= 1e-10 * max(np.linalg.norm(m, 2), 1e-10)
