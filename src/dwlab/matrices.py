"""Dense linear algebra for small symmetric positive (semi)definite matrices.

Everything in the laboratory runs on matrices of dimension at most ~8, so the
workhorse eigensolver is a cyclic Jacobi iteration: at these sizes it is as
accurate as anything available and keeps the positivity checks self-contained.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "SpdMatrix",
    "PsdMatrix",
    "jacobi_eigh",
    "spd_sqrt",
    "op_norm",
    "log_det",
    "loewner_geq",
]

# Scale-invariant positivity threshold: smallest eigenvalue must clear this
# multiple of the spectral radius.
PD_RTOL = 1e-13


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix fails its positivity check at construction."""


def jacobi_eigh(a, tol=1e-15, max_sweeps=64):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvectors in the columns of ``v``.  Intended for dimensions <= ~8.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a[0, :1].copy(), v
    scale = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.square(a - np.diag(np.diag(a))))))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a = (a + a.T) / 2.0
                v = v @ rot
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


class SpdMatrix:
    """Immutable N x N symmetric positive definite matrix.

    Input is symmetrized as ``(A + A^T)/2`` at construction (killing drift from
    accumulated arithmetic), after which exact symmetry is required.  The
    smallest eigenvalue must exceed ``PD_RTOL`` times the spectral radius.
    """

    _semidefinite = False
    __slots__ = ("_entries", "_eigenvalues", "_eigenvectors")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a = (a + a.T) / 2.0
        if not np.array_equal(a, a.T):
            raise ValueError("symmetrization did not produce an exactly symmetric matrix")
        w, v = jacobi_eigh(a)
        scale = float(np.max(np.abs(w)))
        smallest = float(w[0])
        if self._semidefinite:
            if smallest < -PD_RTOL * scale:
                raise NotPositiveDefiniteError(
                    f"matrix is not positive semidefinite: eigenvalue {smallest!r}"
                )
        else:
            if smallest <= PD_RTOL * scale:
                raise NotPositiveDefiniteError(
                    f"matrix is not positive definite: eigenvalue {smallest!r}"
                )
        a.setflags(write=False)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "_entries", a)
        object.__setattr__(self, "_eigenvalues", w)
        object.__setattr__(self, "_eigenvectors", v)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def dim(self):
        return self._entries.shape[0]

    @property
    def entries(self):
        return self._entries

    @property
    def eigenvalues(self):
        return self._eigenvalues

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=float)))

    def _power(self, exponent):
        w = np.power(self._eigenvalues, exponent)
        v = self._eigenvectors
        return (v * w) @ v.T

    def sqrt(self):
        return SpdMatrix(self._power(0.5))

    def inv(self):
        return SpdMatrix(self._power(-1.0))

    def log_det(self):
        if self._eigenvalues[0] <= 0.0:
            raise NotPositiveDefiniteError(
                f"log-determinant needs a positive definite matrix: eigenvalue {self._eigenvalues[0]!r}"
            )
        return float(np.sum(np.log(self._eigenvalues)))

    def op_norm(self):
        return float(np.max(np.abs(self._eigenvalues)))

    def __repr__(self):
        return f"{type(self).__name__}({self._entries.tolist()!r})"


class PsdMatrix(SpdMatrix):
    """Positive semidefinite variant: eigenvalues may touch zero."""

    _semidefinite = True
    __slots__ = ()


def _as_entries(a):
    if isinstance(a, SpdMatrix):
        return a.entries
    return np.asarray(a, dtype=float)


def spd_sqrt(a):
    """Symmetric positive definite square root, ``S @ S = A``."""
    if not isinstance(a, SpdMatrix):
        a = SpdMatrix(a)
    return a.sqrt()


def op_norm(a):
    """Largest singular value of a general (rectangular) real matrix."""
    m = _as_entries(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    # Work with the smaller Gram matrix; its top eigenvalue is sigma_max^2.
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    w, _ = jacobi_eigh(gram)
    return math.sqrt(max(float(w[-1]), 0.0))


def log_det(a):
    """Sum of the logarithms of the eigenvalues of an SPD matrix."""
    if not isinstance(a, SpdMatrix):
        a = SpdMatrix(a)
    return a.log_det()


def loewner_geq(a, b, tol=0.0):
    """True iff ``A - B`` has smallest eigenvalue >= ``-tol``."""
    ea, eb = _as_entries(a), _as_entries(b)
    if ea.shape != eb.shape:
        raise ValueError(f"dimension mismatch: {ea.shape} vs {eb.shape}")
    d = ea - eb
    d = (d + d.T) / 2.0
    w, _ = jacobi_eigh(d)
    return bool(w[0] >= -tol)
