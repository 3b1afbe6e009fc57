"""Numerically safe primitives: log-sum-exp, weighted means, Gauss-Hermite rules, SPD matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MAX_GH_NODES = 128


def log_sum_exp(w, axis=-1):
    """Return log(sum(exp(w))) along `axis`, shifted by the max for stability.

    An all-(-inf) slice yields -inf (zero total mass) without overflow or NaN.
    """
    w = np.asarray(w, dtype=float)
    m = np.max(w, axis=axis, keepdims=True)
    # slices that are entirely -inf: shift by 0 instead so exp(-inf) = 0 cleanly
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(w - m_safe), axis=axis)) + np.squeeze(m_safe, axis=axis)
    return out


def log_weighted_mean(logw, u):
    """sum_i e_i u_i / sum_i e_i over components i, e_i = exp(logw_i - max_j logw_j), for
    log weights (kappa, ...) and vectors (kappa, ..., d), which may be a strided view.

    The weights are exponentiated in place of logw and never normalised on their own: the
    (..., d) sum is divided by their total, which is at least 1. A slice whose log weights
    hold +inf or NaN, or are all -inf, gives NaN in its own row only.
    """
    e = logw
    e -= np.maximum.reduce(e, axis=0)   # the ufunc reductions skip np.max's and np.sum's wrappers
    np.exp(e, out=e)
    total = np.add.reduce(e, axis=0)
    mean = np.einsum("k...,k...d->...d", e, u)
    mean /= total[..., None]
    return mean


def weighted_sum(p, v):
    """sum_j p_j v_j over the pool axis: (..., M) weights and (..., M, d) vectors -> (..., d)."""
    return (p[..., None, :] @ v)[..., 0, :]


def shifted_points(x, r, v_t):
    """The points x + r v_j for (..., d) points x and vectors v_t stored pool-axis-last,
    (..., d, M): the (..., M, d) view of a C-contiguous (..., d, M) array.

    r v_j is written into the new array and x added in place, so both loops run along the
    long M axis; a broadcast sum would run its inner loop over the short d axis.
    """
    x = np.asarray(x, dtype=float)
    y = np.empty(np.broadcast_shapes(x.shape + (1,), v_t.shape))
    np.multiply(v_t, r, out=y)
    y += x[..., :, None]
    return np.swapaxes(y, -1, -2)


def rows_times(x, m):
    """x @ m for rows x (..., d) and a matrix m (d, e), each row computed on its own.

    BLAS takes gemv for one row and gemm for several, and the two differ in the last bits;
    this contraction has no such switch, so a row's bytes never depend on the rows beside it.
    """
    return np.einsum("...d,de->...e", x, m)


def gauss_hermite(n_nodes):
    """Nodes and weights for integrals against exp(-x^2) on the real line.

    Exact for polynomials of degree <= 2*n_nodes - 1.
    """
    if not (1 <= n_nodes <= MAX_GH_NODES):
        raise ConfigError(f"n_nodes must be in [1, {MAX_GH_NODES}], got {n_nodes}")
    return np.polynomial.hermite.hermgauss(n_nodes)


def gauss_hermite_normal(n_nodes):
    """Nodes z and probability weights p with sum(p * f(z)) ~ E[f(xi)], xi ~ N(0,1)."""
    x, w = gauss_hermite(n_nodes)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


@dataclass(frozen=True)
class SpdMatrix:
    """A symmetric positive-definite matrix together with its lower Cholesky factor."""

    entries: np.ndarray
    chol: np.ndarray

    SYM_TOL = 1e-12
    PIVOT_REL_TOL = 1e-12

    @classmethod
    def from_matrix(cls, a) -> "SpdMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError(f"expected a square matrix, got shape {a.shape}")
        if np.max(np.abs(a - a.T)) > cls.SYM_TOL:
            raise ConfigError("matrix is not symmetric within 1e-12")
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("matrix is not positive definite") from exc
        # reject near-singular covariances: pivots relative to the largest diagonal entry
        pivots = np.diag(chol) ** 2
        if np.min(pivots) <= cls.PIVOT_REL_TOL * np.max(np.diag(a)):
            raise ConfigError("matrix is numerically singular (tiny Cholesky pivot)")
        a = a.copy()
        a.setflags(write=False)
        chol.setflags(write=False)
        return cls(entries=a, chol=chol)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def diagonal_part(self):
        """Diagonal of the matrix; valid as the full matrix only if is_diagonal."""
        return np.diag(self.entries)

    @property
    def is_diagonal(self) -> bool:
        return bool(np.all(self.entries == np.diag(self.diagonal_part)))

    def eigen(self):
        """Eigenvalues lam and orthonormal eigenvector columns Q, A = Q diag(lam) Q^T.

        A diagonal matrix returns its diagonal in place and Q = None: eigh
        would sort the eigenvalues and return a permutation, not the identity.
        """
        if self.is_diagonal:
            return self.diagonal_part, None
        return np.linalg.eigh(self.entries)

    def sample(self, mean, gen, n):
        """Draw n points from N(mean, A)."""
        u = gen.standard_normal((n, self.dim))
        return np.asarray(mean, dtype=float) + u @ self.chol.T
