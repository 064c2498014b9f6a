"""Small dense real matrix/vector kernel.

Vectors are 1-D float arrays, matrices 2-D row-major float arrays; everything
is validated at the operation boundary, never assumed. Two factorizations
are written out explicitly so the pivot threshold is under our control: LU
with partial (row) pivoting for general matrices (solve and determinant), and
Cholesky for symmetric positive definite ones (solve and the SPD test). A
pivot is declared singular when it is at most ``1e-12 * ||A||_inf``: in
magnitude for LU, in value for Cholesky.
Intended scale is n <= ~16.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .errors import DimensionError, DomainError, SingularityError

PIVOT_RTOL = 1e-12


def as_vec(x) -> np.ndarray:
    """Validate and copy a 1-D real vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DomainError("vector entries must be finite")
    return v.copy()


def as_mat(a) -> np.ndarray:
    """Validate and copy a 2-D real matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    return m.copy()


def norm_inf(a: np.ndarray) -> float:
    """Induced infinity norm (max absolute row sum)."""
    m = np.asarray(a, dtype=float)
    if m.size == 0:
        return 0.0
    if m.ndim == 1:
        return float(np.abs(m).max())
    return float(np.abs(m).sum(axis=1).max())


def lu_factor(a: np.ndarray):
    """Doolittle LU with partial pivoting.

    Returns (lu, perm, swaps) where ``lu`` packs L (unit diagonal implied)
    below and U on/above the diagonal, ``perm`` is the row permutation, and
    ``swaps`` counts row exchanges (for the determinant sign).
    """
    a = as_mat(a)
    n, m = a.shape
    if n != m:
        raise DimensionError(f"LU needs a square matrix, got {a.shape}")
    threshold = PIVOT_RTOL * norm_inf(a)
    lu = a.copy()
    perm = np.arange(n)
    swaps = 0
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= threshold:
            raise SingularityError(
                f"pivot {abs(lu[p, k]):.3e} below threshold {threshold:.3e} at column {k}"
            )
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            swaps += 1
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm, swaps


def lu_solve(a, b) -> np.ndarray:
    """Solve ``A x = b`` for one right-hand side."""
    b = as_vec(b)
    lu, perm, _ = lu_factor(a)
    n = lu.shape[0]
    if len(b) != n:
        raise DimensionError(f"rhs length {len(b)} does not match matrix size {n}")
    x = b[perm]
    for k in range(1, n):          # forward substitution, unit lower
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):  # back substitution
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def determinant(a) -> float:
    """Determinant via LU; singular matrices report exactly 0.0."""
    a = as_mat(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"determinant needs a square matrix, got {a.shape}")
    try:
        lu, _, swaps = lu_factor(a)
    except SingularityError:
        return 0.0
    det = float(np.prod(np.diag(lu)))
    return -det if swaps % 2 else det


def _square_rows(a) -> list[list[float]]:
    """A validated square matrix as rows of Python floats."""
    m = as_mat(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"Cholesky needs a square matrix, got {m.shape}")
    return m.tolist()


def _cholesky_rows(a_rows: list[list[float]]) -> list[list[float]]:
    """Rows of the lower Cholesky factor of a square matrix of finite Python
    floats (row i holds L[i, :i + 1]); only the lower triangle is read."""
    threshold = PIVOT_RTOL * max([sum(map(abs, a)) for a in a_rows], default=0.0)
    rows: list[list[float]] = []
    for i, a in enumerate(a_rows):
        li = []
        for j, lj in enumerate(rows):
            li.append((a[j] - sum(map(mul, li, lj))) / lj[j])
        s = a[i] - sum(map(mul, li, li))
        if s <= threshold:
            raise SingularityError(
                f"pivot {s:.3e} not above threshold {threshold:.3e} at column {i}")
        li.append(math.sqrt(s))
        rows.append(li)
    return rows


def _cholesky_solve_rows(a_rows: list[list[float]], b: list[float]) -> list[float]:
    """Solve ``A x = b`` for A and b already validated (square, finite, of
    matching size) and given as Python floats: Cholesky, then forward
    (L y = b) and back (L^T x = y) substitution."""
    rows = _cholesky_rows(a_rows)
    y = []
    for li, bi in zip(rows, b):
        y.append((bi - sum(map(mul, li, y))) / li[-1])
    for i in range(len(rows) - 1, -1, -1):
        y[i] = (y[i] - sum(map(mul, [lk[i] for lk in rows[i + 1:]], y[i + 1:]))) / rows[i][i]
    return y


def cholesky(a) -> np.ndarray:
    """Lower factor L with A = L L^T of a symmetric positive definite matrix.

    Only the lower triangle of A is read. SingularityError at the first pivot
    L_ii^2 <= 1e-12 * ||A||_inf, so an indefinite or numerically singular
    matrix is refused."""
    rows = _cholesky_rows(_square_rows(a))
    low = np.zeros((len(rows), len(rows)))
    for i, li in enumerate(rows):
        low[i, :i + 1] = li
    return low


def cholesky_solve(a, b) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive definite A: Cholesky, then
    forward (L y = b) and back (L^T x = y) substitution."""
    a_rows = _square_rows(a)
    y = as_vec(b)
    if len(y) != len(a_rows):
        raise DimensionError(f"rhs length {len(y)} does not match matrix size {len(a_rows)}")
    return np.array(_cholesky_solve_rows(a_rows, y.tolist()))


def is_positive_definite(a) -> bool:
    """True when the Cholesky factor of the symmetric matrix exists."""
    try:
        _cholesky_rows(_square_rows(a))
    except SingularityError:
        return False
    return True
