"""Dense singular value decomposition and input validation.

The exact path (phases, threshold projection, the experiment's kept-set
surrogate) works from one factorization A = sum_i sigma_i u_i v_i^T, so
this module owns the conventions: singular values are sorted descending
and strictly positive up to the numerical rank, while the stored U and V are
complete orthonormal bases (the columns beyond the rank span the null
spaces, which the phase simulator needs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import MatrixError

# Orthonormality and idempotence tolerance for factorization invariants.
ORTHO_TOL = 1e-10
# Reconstruction tolerance, relative to the Frobenius norm of the input.
RECONSTRUCT_TOL = 1e-8


def as_matrix(a) -> np.ndarray:
    """Validate and convert input to a 2-d float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise MatrixError(f"expected a 2-d matrix, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise MatrixError(f"matrix must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise MatrixError("matrix entries must be finite")
    return arr


def as_vector(x, size: int | None = None) -> np.ndarray:
    """Validate and convert input to a 1-d float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise MatrixError(f"expected a 1-d vector, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise MatrixError(f"expected a vector of length {size}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise MatrixError("vector entries must be finite")
    return arr


def unit_vector(x, size: int) -> np.ndarray:
    """x / ||x|| for a valid length-``size`` vector; the zero vector is rejected."""
    vec = as_vector(x, size=size)
    norm = np.linalg.norm(vec)
    if norm <= 0.0:
        raise MatrixError("cannot normalize the zero vector")
    return vec / norm


@dataclass(frozen=True)
class SvdFactorization:
    """Full SVD of an m x n matrix with the rank made explicit.

    ``u`` is m x m and ``v`` is n x n, both orthonormal; ``sigma`` holds only
    the ``rank`` strictly positive singular values, descending. Column i of
    ``v`` for i >= rank spans the kernel of A (singular value zero).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    shape: tuple[int, int] = field(default=(0, 0))

    @property
    def rank(self) -> int:
        return int(self.sigma.shape[0])

    def singular_value(self, i: int) -> float:
        """sigma_i with the convention sigma_i = 0 beyond the rank."""
        if i < 0 or i >= self.shape[1]:
            raise MatrixError(f"singular value index {i} out of range")
        return float(self.sigma[i]) if i < self.rank else 0.0

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(self.sigma**2)))

    def reconstruct(self, indices: Sequence[int] | None = None) -> np.ndarray:
        """Sum of sigma_i u_i v_i^T over ``indices`` (default: all of them)."""
        idx = np.arange(self.rank) if indices is None else np.asarray(indices, dtype=int)
        if idx.size == 0:
            return np.zeros(self.shape)
        if idx.min() < 0 or idx.max() >= self.rank:
            raise MatrixError("reconstruction index outside the positive spectrum")
        return (self.u[:, idx] * self.sigma[idx]) @ self.v[:, idx].T


def svd(a) -> SvdFactorization:
    """Factor A = U diag(sigma) V^T with a numerical-rank cutoff.

    Deterministic for identical input bits. Trailing singular values below
    max(m, n) * eps * sigma_1 are treated as zero and dropped from ``sigma``
    (their basis vectors remain in U and V).
    """
    arr = as_matrix(a)
    u, s, vt = np.linalg.svd(arr, full_matrices=True)
    if s.size and s[0] > 0.0:
        cutoff = max(arr.shape) * np.finfo(np.float64).eps * s[0]
        rank = int(np.sum(s > cutoff))
    else:
        rank = 0
    return SvdFactorization(u=u, sigma=s[:rank].copy(), v=vt.T, shape=arr.shape)
