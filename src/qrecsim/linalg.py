"""Singular value decompositions, full and partial, and input validation.

Every caller reads sigma and the right singular vectors of A = sum_i
sigma_i u_i v_i^T, never U, so this module returns only those and owns the
conventions: singular values are sorted descending and strictly positive
up to the numerical rank, ``sigma`` holds the resolved ones, and the
squared mass they leave out of ||A||_F^2 travels with them. A stored V is
either complete (the columns beyond the rank span the null space, which
the phase simulator needs) or, on the partial route, holds only the
resolved columns.

``svd(a)`` is the LAPACK factorization and the oracle. Callers that read
less ask for less, and each request has a partial route that falls back to
a dense one:

- ``top=k`` gives singular values alone. It first runs block subspace
  iteration for the top k values and keeps them when their Ritz residuals
  bound the mass that the rest leave out of ||A||_F^2 to RITZ_TOL
  relative; otherwise (for instance when that mass is within rounding, as
  for a matrix of rank at most k) the values-only gesdd runs.
- ``floor=f`` gives sigma and V for every sigma >= f. When f clears the
  A^T A route's rounding (``GRAM_FLOOR``) it forms G = A^T A and runs
  block subspace iteration on G. The values at or above f are kept when
  their Ritz residuals reach RITZ_TOL and a Cholesky factorization
  certifies that every other singular value lies below f. When the block
  fills, the iteration stalls or the certificate fails, eigh(G) gives sigma
  and a complete V, and values below f are then only certified to lie
  below it. Below the rounding rule the full factorization runs.

Both partial routes run one Chebyshev-filtered block subspace iteration
(Zhou, Saad, Tiago & Chelikowsky, J. Comput. Phys. 219, 2006). It starts
from a block drawn with a fixed internal seed, so every route depends on
the input bits alone and draws from no caller's random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import MatrixError

# The A^T A routes run only when floor^2 > GRAM_FLOOR * max(m, n) * eps *
# ||A||_F^2. Forming and diagonalizing A^T A moves each eigenvalue by about
# max(m, n) * eps * ||A||_F^2, so a singular value at the floor comes out
# within 1 / (2 GRAM_FLOOR) = 5e-9 relative, and less above it. At n = 1024
# this admits floors from about 4.8e-3 ||A||_F up.
GRAM_FLOOR = 1e8
# The A^T A routes square A's entries, in G and in the Ritz residual norms.
# While 1 / GRAM_RANGE <= ||A||_F^2 <= GRAM_RANGE no square they rely on can
# overflow or flush to zero; outside it they run on A scaled by a power of two.
GRAM_RANGE = 2.0**400
# Seed of the subspace iteration's start block (internal: no caller's stream).
RITZ_SEED = 20160321
# Block width beyond the k wanted values of a top-k request.
RITZ_OVERSAMPLE = 4
# Block width of a thresholded request: it can resolve up to RITZ_BLOCK - 1
# values above the floor; a block that fills falls back to eigh.
RITZ_BLOCK = 8
# Products with G, beyond the start block's, that a partial route may spend
# before it gives up and falls back: what 24 plain power sweeps cost.
RITZ_SWEEPS = 24
# Degree of the Chebyshev filter between Rayleigh-Ritz steps: each filtered
# sweep costs RITZ_DEGREE products with G, so a route makes at most
# 1 + (RITZ_SWEEPS - 1) // RITZ_DEGREE = 6 Rayleigh-Ritz steps.
RITZ_DEGREE = 4
# Relative accuracy a partial route must reach: each resolved sigma^2 (by
# its Ritz residual, Weyl's bound) or, for top k, the mass left out.
RITZ_TOL = 1e-12
# Rows of the certificate matrix formed per block product.
CERTIFY_ROWS = 128
EPS = float(np.finfo(np.float64).eps)
# Domains of real parameters by rule name: the test and how a message states
# it. NaN and both infinities fail every test.
REAL_RULES = {
    "fraction": (lambda v: 0.0 < v < 1.0, "a number in (0, 1)"),
    "probability": (lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
    "rate": (lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
    "positive": (lambda v: 0.0 < v < np.inf, "a finite number > 0"),
    "nonnegative": (lambda v: 0.0 <= v < np.inf, "a finite number >= 0"),
}


def _float64(a) -> np.ndarray:
    """``a`` as a float64 array; MatrixError when numpy cannot convert it."""
    try:
        return np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MatrixError(f"cannot convert input to a float64 array: {exc}") from exc


def check_real(rule: str, /, **values) -> None:
    """Reject the first of ``values`` (name=value) that is not a real number,
    or a bool, or that fails ``REAL_RULES[rule]``, with a MatrixError."""
    ok, wording = REAL_RULES[rule]
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Real) or not ok(value):
            raise MatrixError(f"{name} must be {wording}, got {value!r}")


def check_count(low: int, high: float = np.inf, /, **values) -> None:
    """Reject the first of ``values`` (name=value) that is not an integer,
    or is a bool, or lies outside [low, high], with a MatrixError."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral) or not low <= value <= high:
            raise MatrixError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def as_matrix(a) -> np.ndarray:
    """Validate and convert input to a non-empty 2-d float64 array whose
    entries and ||A||_F^2 are finite; a store refuses the same overflow.

    One dot product over the entries checks both: it is finite exactly
    when every entry is finite and the sum of their squares does not
    overflow. The message is picked only on failure.
    """
    arr = _float64(a)
    if arr.ndim != 2:
        raise MatrixError(f"expected a 2-d matrix, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise MatrixError(f"matrix must be non-empty, got shape {arr.shape}")
    flat = arr.ravel(order="K")
    with np.errstate(over="ignore", invalid="ignore"):
        fro_sq = flat.dot(flat)
    if not math.isfinite(fro_sq):
        if not np.all(np.isfinite(arr)):
            raise MatrixError("matrix entries must be finite")
        raise MatrixError("entries too large: ||A||_F^2 overflows")
    return arr


def as_vector(x, size: int | None = None) -> np.ndarray:
    """Validate and convert input to a 1-d float64 array."""
    arr = _float64(x)
    if arr.ndim != 1:
        raise MatrixError(f"expected a 1-d vector, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise MatrixError(f"expected a vector of length {size}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise MatrixError("vector entries must be finite")
    return arr


def unit_vector(x, size: int) -> np.ndarray:
    """x / ||x|| for a valid length-``size`` vector; the zero vector is rejected."""
    return normalized(as_vector(x, size=size))


def normalized(vec: np.ndarray) -> np.ndarray:
    """vec / ||vec|| for a 1-d float64 array already known to be finite; the
    zero vector is rejected. ||vec|| is sqrt(vec . vec) over a contiguous
    copy, the bits ``np.linalg.norm`` gives (a strided dot sums in another
    order)."""
    flat = vec.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))
    if norm <= 0.0:
        raise MatrixError("cannot normalize the zero vector")
    return vec / norm


@dataclass(frozen=True)
class SvdFactorization:
    """Singular values and right vectors of an m x n matrix, rank explicit.

    ``sigma`` holds the resolved strictly positive singular values,
    descending, and ``rest_sq`` the squared mass ||A||_F^2 - sum sigma_i^2
    that they leave out: 0 when sigma holds them all. ``v`` is None for a
    values-only request. A complete ``v`` is n x n and orthonormal, and its
    column i for i >= rank spans the kernel of A (singular value zero); on
    the partial route of ``svd(a, floor=f)`` it holds the ``rank`` resolved
    columns only. From the eigh route of ``svd(a, floor=f)``, values below
    f are rough: each is certified to lie below f, not resolved.
    """

    sigma: np.ndarray
    v: np.ndarray | None
    shape: tuple[int, int]
    rest_sq: float = 0.0

    @property
    def rank(self) -> int:
        return int(self.sigma.shape[0])

    def column_sigma(self) -> np.ndarray:
        """sigma for every column of V (n of them when V is not stored),
        zero beyond the rank."""
        out = np.zeros(self.shape[1] if self.v is None else self.v.shape[1])
        out[: self.rank] = self.sigma
        return out

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(self.sigma**2) + self.rest_sq))


def svd(a, floor: float | None = None, top: int | None = None) -> SvdFactorization:
    """sigma and V of A = U diag(sigma) V^T, with a numerical-rank cutoff.

    Deterministic for identical input bits. Trailing singular values below
    max(m, n) * eps * sigma_1 are treated as zero and dropped from ``sigma``
    (their vectors remain in V). By default V is complete (n x n), and
    LAPACK's U is never larger than m x min(m, n). ``top=k`` computes the
    values alone and allows the result to hold only the top k. With a
    ``floor`` clearing the GRAM_FLOOR rule, sigma and a C-contiguous V come
    from the partial route or eigh of A^T A (see the module docstring);
    otherwise the full factorization runs. Asking for both raises
    MatrixError.
    """
    arr = as_matrix(a)
    if floor is not None and top is not None:
        raise MatrixError("svd takes a floor or a top count, not both")
    tol = max(arr.shape) * EPS
    fro_sq = float(np.vdot(arr, arr))
    v = None
    scaled, e = arr, 0
    if (floor is not None or top is not None) and not 1.0 / GRAM_RANGE <= fro_sq <= GRAM_RANGE:
        # Power-of-two scaling is exact: the routes run on A / 2^e, whose
        # largest entry lies in [1/2, 1), and their results are scaled back.
        e = int(np.frexp(max(arr.max(), -arr.min()))[1])
        scaled = np.ldexp(arr, -e)
        fro_sq = float(np.vdot(scaled, scaled))
    if top is not None:
        part = _top_values(scaled, top, fro_sq)
        if part is not None:
            return _scaled_back(part, e)
        s = np.linalg.svd(arr, compute_uv=False)
    elif floor is not None and np.ldexp(floor, -e) > np.sqrt(GRAM_FLOOR * tol * fro_sq):
        g = scaled.T @ scaled
        part = _above_floor(g, np.ldexp(floor, -e), fro_sq, arr.shape)
        if part is not None:
            return _scaled_back(part, e)
        lam, vecs = np.linalg.eigh(g)
        lam = lam[::-1]
        # Eigenvalues inside eigh's rounding of A^T A are zero singular values.
        s = np.ldexp(np.sqrt(np.where(lam > tol * lam[0], lam, 0.0)), e)
        v = np.ascontiguousarray(vecs[:, ::-1])
    else:
        # The reduced V is complete when m >= n; a wide A's full V costs an m x m U.
        _, s, vt = np.linalg.svd(arr, full_matrices=arr.shape[0] < arr.shape[1])
        v = vt.T
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0.0 else 0
    return SvdFactorization(sigma=s[:rank].copy(), v=v, shape=arr.shape)


def _ritz_sweeps(gram_times, n: int, block: int):
    """Chebyshev-filtered block subspace iteration on a Gram matrix G = A^T A,
    applied by ``gram_times``: after each Rayleigh-Ritz step, yields the
    eigenvalue estimates (descending), their Ritz vectors and the residual
    norms ||G v_i - lam_i v_i||. Weyl's inequality puts an eigenvalue of G
    within each residual of its estimate, and the estimates lie below the
    eigenvalues they approach (Cauchy interlacing).

    The first sweep orthonormalizes G times the start block. Each later one
    filters the Ritz vectors with the degree-RITZ_DEGREE Chebyshev polynomial
    that is at most 1 in magnitude on [0, lam_b], lam_b the block's smallest
    estimate, and grows fastest above it; a block whose lam_b is rounding
    (it spans every direction G does not annihilate) takes a plain power step
    instead. The iteration stops before it would pass RITZ_SWEEPS + 1
    products with G.
    """
    start = np.random.default_rng(RITZ_SEED).standard_normal((n, block))
    x = np.linalg.qr(gram_times(start))[0]
    for sweep in range(1 + (RITZ_SWEEPS - 1) // RITZ_DEGREE):
        if sweep:
            step = gv if lam[-1] <= EPS * lam[0] else _chebyshev(gram_times, vecs, gv, lam[-1])
            x = np.linalg.qr(step)[0]
        gx = gram_times(x)
        lam, w = np.linalg.eigh(x.T @ gx)
        lam, w = lam[::-1], w[:, ::-1]
        vecs, gv = x @ w, gx @ w
        yield lam, vecs, np.linalg.norm(gv - vecs * lam, axis=0)


def _chebyshev(gram_times, v: np.ndarray, gv: np.ndarray, edge: float) -> np.ndarray:
    """T_d(2 G / edge - 1) V for d = RITZ_DEGREE by the three-term
    recurrence, given G V: d - 1 products with G."""
    half = 0.5 * edge
    prev, cur = v, gv / half - v
    for _ in range(RITZ_DEGREE - 1):
        prev, cur = cur, 2.0 * (gram_times(cur) / half - cur) - prev
    return cur


def _top_values(arr: np.ndarray, k: int, fro_sq: float) -> SvdFactorization | None:
    """The top k singular values and the mass the rest leave out, or None
    when the residuals cannot bound that mass to RITZ_TOL relative."""
    m, n = arr.shape
    block = k + RITZ_OVERSAMPLE
    if block >= min(m, n):
        return None
    # ||A||_F^2 and the k estimates each carry about eps relative rounding.
    rounding = (k + 1) * EPS * fro_sq
    for lam, _, res in _ritz_sweeps(lambda x: arr.T @ (arr @ x), n, block):
        rest_sq = fro_sq - float(np.sum(lam[:k]))
        if rounding > RITZ_TOL * rest_sq:
            return None
        if float(np.sum(res[:k])) + rounding <= RITZ_TOL * rest_sq:
            return SvdFactorization(np.sqrt(lam[:k]), None, arr.shape, rest_sq)
    return None


def _above_floor(
    g: np.ndarray, floor: float, fro_sq: float, shape: tuple[int, int]
) -> SvdFactorization | None:
    """Every singular value >= floor with its right vector, from G = A^T A,
    or None when the block fills, the residuals stall above RITZ_TOL or the
    certificate fails. G's lower triangle is left as it was."""
    n = g.shape[0]
    if RITZ_BLOCK >= n:
        return None
    bound = floor * floor
    for lam, vecs, res in _ritz_sweeps(g.__matmul__, n, RITZ_BLOCK):
        r = int(np.sum(lam >= bound))
        if r == RITZ_BLOCK:
            return None
        if np.all(res[:r] <= RITZ_TOL * lam[:r]):
            break
    else:
        return None
    vecs, lam = vecs[:, :r], lam[:r]
    if not _certify_below(g, vecs, lam, bound - _certificate_margin(shape, r, fro_sq, bound)):
        return None
    rest_sq = fro_sq - float(np.sum(lam))
    return SvdFactorization(np.sqrt(lam), np.ascontiguousarray(vecs), shape, rest_sq)


def _scaled_back(f: SvdFactorization, e: int) -> SvdFactorization:
    """``f``, a factorization of A / 2^e, as one of A."""
    return SvdFactorization(np.ldexp(f.sigma, e), f.v, f.shape, float(np.ldexp(f.rest_sq, 2 * e)))


def _certificate_margin(shape: tuple[int, int], r: int, fro_sq: float, bound: float) -> float:
    """What rounding can hide in the certificate of G - V diag(lam) V^T
    below ``bound`` (first order in eps, with lam_1 <= ||A||_F^2):

    - forming G = fl(A^T A) moves it by at most m eps ||A||_F^2;
    - subtracting the rank-r term adds (r + 2) eps (r + 1) ||A||_F^2;
    - a Cholesky factorization that completes on M proves M + E positive
      definite with ||E|| <= (n + 1) eps tr(M), and tr(M) <= n * bound.

    No term for the Ritz residual is needed: Weyl's inequality for a rank-r
    update, lam_{r+1}(G) <= lam_1(G - V diag(lam) V^T), holds whatever V and
    lam are.
    """
    m, n = shape
    return EPS * ((m + (r + 2) * (r + 1)) * fro_sq + (n + 1) * n * bound)


def _certify_below(g: np.ndarray, vecs: np.ndarray, lam: np.ndarray, bound: float) -> bool:
    """Whether bound * I - (G - V diag(lam) V^T) has a Cholesky factor.

    The matrix is written over G's upper triangle, block by block, and G's
    diagonal is restored afterwards, so G's lower triangle (all that eigh
    reads) and its diagonal come back unchanged. The factorization reads the
    lower triangle of G^T, which is G's upper triangle, through G^T's
    Fortran order, so numpy copies it in contiguously.
    """
    n = g.shape[0]
    diag = g.diagonal().copy()
    scaled = vecs * lam
    for lo in range(0, n, CERTIFY_ROWS):
        hi = min(lo + CERTIFY_ROWS, n)
        rows = scaled[lo:hi] @ vecs[lo:].T
        rows -= g[lo:hi, lo:]
        below = np.tril_indices(hi - lo, -1)
        rows[below] = g[lo:hi, lo:hi][below]
        g[lo:hi, lo:] = rows
    g.flat[:: n + 1] += bound
    try:
        np.linalg.cholesky(g.T)
    except np.linalg.LinAlgError:
        return False
    finally:
        g.flat[:: n + 1] = diag
    return True
