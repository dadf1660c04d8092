"""Dense singular value decomposition and input validation.

The exact path (phases, threshold projection, the experiment's kept-set
surrogate) works from one factorization A = sum_i sigma_i u_i v_i^T, so
this module owns the conventions: singular values are sorted descending
and strictly positive up to the numerical rank, while a stored U or V is a
complete orthonormal basis (the columns beyond the rank span the null
spaces, which the phase simulator needs).

``svd(a)`` is the full LAPACK factorization and the oracle. Callers that
read less ask for less: ``vectors=False`` gives the singular values alone,
and ``floor=f`` gives sigma and V without U, from the eigendecomposition of
A^T A when f is far enough above that route's rounding (``GRAM_FLOOR``);
singular values below f are then only certified to lie below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MatrixError

# Orthonormality and idempotence tolerance for factorization invariants.
ORTHO_TOL = 1e-10
# The A^T A route runs only when floor^2 > GRAM_FLOOR * max(m, n) * eps *
# ||A||_F^2. Forming and diagonalizing A^T A moves each eigenvalue by about
# max(m, n) * eps * ||A||_F^2, so a singular value at the floor comes out
# within 1 / (2 GRAM_FLOOR) = 5e-9 relative, and less above it. At n = 1024
# this admits floors from about 4.8e-3 ||A||_F up.
GRAM_FLOOR = 1e8


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
    """SVD of an m x n matrix with the rank made explicit.

    ``u`` is m x m and ``v`` is n x n, both orthonormal, or None when the
    caller did not ask for them; ``sigma`` holds only the ``rank`` strictly
    positive singular values, descending. Column i of ``v`` for i >= rank
    spans the kernel of A (singular value zero). From ``svd(a, floor=f)``,
    values below f are rough: each is certified to lie below f, not resolved.
    """

    u: np.ndarray | None
    sigma: np.ndarray
    v: np.ndarray | None
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


def svd(a, vectors: bool = True, floor: float | None = None) -> SvdFactorization:
    """Factor A = U diag(sigma) V^T with a numerical-rank cutoff.

    Deterministic for identical input bits. Trailing singular values below
    max(m, n) * eps * sigma_1 are treated as zero and dropped from ``sigma``
    (their basis vectors remain in U and V). With ``vectors=False`` only
    sigma is computed (``floor`` is then ignored). With a ``floor`` clearing
    the GRAM_FLOOR rule, sigma and a complete C-contiguous V come from eigh
    of A^T A and U is None; otherwise the full factorization runs.
    """
    arr = as_matrix(a)
    tol = max(arr.shape) * np.finfo(np.float64).eps
    u = v = None
    if not vectors:
        s = np.linalg.svd(arr, compute_uv=False)
    elif floor is not None and floor > np.sqrt(GRAM_FLOOR * tol * float(np.vdot(arr, arr))):
        lam, vecs = np.linalg.eigh(arr.T @ arr)
        lam = lam[::-1]
        # Eigenvalues inside eigh's rounding of A^T A are zero singular values.
        s = np.sqrt(np.where(lam > tol * lam[0], lam, 0.0))
        v = np.ascontiguousarray(vecs[:, ::-1])
    else:
        u, s, vt = np.linalg.svd(arr, full_matrices=True)
        v = vt.T
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0.0 else 0
    return SvdFactorization(u=u, sigma=s[:rank].copy(), v=v, shape=arr.shape)
