"""Real polynomial kernel: ascending-power coefficient arrays, arithmetic,
Horner evaluation, and simultaneous (Durand-Kerner / Weierstrass) root
iteration. Shared by the ODE and transfer-function layers."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError

TRIM_RTOL = 1e-12


def as_poly(c) -> np.ndarray:
    p = np.atleast_1d(np.asarray(c, dtype=float))
    if p.ndim != 1 or p.size == 0:
        raise DomainError("polynomial coefficients must form a nonempty 1-D sequence")
    if not np.all(np.isfinite(p)):
        raise DomainError("polynomial coefficients must be finite")
    return p.copy()


def trim(c) -> np.ndarray:
    """Drop trailing (high-power) coefficients below 1e-12 relative."""
    p = as_poly(c)
    scale = np.max(np.abs(p))
    if scale == 0.0:
        return np.zeros(1)
    keep = np.nonzero(np.abs(p) > TRIM_RTOL * scale)[0]
    return p[: keep[-1] + 1] if len(keep) else np.zeros(1)


def degree(c) -> int:
    return len(trim(c)) - 1


def poly_add(p, q) -> np.ndarray:
    p, q = as_poly(p), as_poly(q)
    if len(p) < len(q):
        p, q = q, p
    out = p.copy()
    out[: len(q)] += q
    return out


def poly_mul(p, q) -> np.ndarray:
    return np.convolve(as_poly(p), as_poly(q))


def _horner(coeffs, s) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return complex(acc)


def poly_eval(p, s) -> complex:
    """Horner evaluation at a real or complex point."""
    return _horner(as_poly(p), s)


def roots_dk(p, tol: float = 1e-12, max_iters: int = 500) -> list[complex]:
    """All roots by simultaneous Weierstrass iteration.

    Starts from points on a circle, the angles offset by 0.4 rad, whose
    radius is Fujiwara's bound on every root, 2 max(|c_{n-1} / c_n|,
    |c_{n-2} / c_n|^(1/2), ..., |c_0 / (2 c_n)|^(1/n)) (Tohoku Math. J. 10,
    1916). Stops when the largest update falls below tol, or when every
    |p(z_i)| is within Horner's rounding bound 2 deg eps sum |c_j| |z_i|^j,
    where further updates are rounding noise (the stopping rule of Bini,
    Numer. Algorithms 13, 1996). Clustered (multiple) roots converge slowly
    and lose accuracy in proportion to their multiplicity; call with a
    looser tol there.
    """
    if max_iters < 1:
        raise DomainError(f"root iteration budget must be at least 1, got {max_iters}")
    p = trim(p)
    deg = len(p) - 1
    if deg < 1:
        raise DomainError("root finding needs degree >= 1")
    lead = p[-1]
    ratios = np.abs(p[-2::-1] / lead)       # |c_{n-k} / c_n| for k = 1..n
    ratios[-1] /= 2.0
    radius = 2.0 * float(np.max(ratios ** (1.0 / np.arange(1, deg + 1))))
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    z = radius * np.exp(1j * angles)
    coeffs, magnitudes = p.astype(complex), np.abs(p)
    rounding = 2.0 * deg * np.finfo(float).eps
    for _ in range(max_iters):
        values = np.array([_horner(coeffs, zi) for zi in z])
        noise = rounding * np.array([_horner(magnitudes, abs(zi)).real for zi in z])
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        diff[diff == 0] = 1e-30
        updates = values / (lead * np.prod(diff, axis=1))
        z = z - updates
        if np.max(np.abs(updates)) < tol or np.all(np.abs(values) <= noise):
            return sorted(map(complex, z), key=lambda r: (r.real, r.imag))
    raise ConvergenceError(
        f"root iteration did not settle in {max_iters} iterations "
        f"(last update {np.max(np.abs(updates)):.3e})"
    )


def format_poly(p) -> str:
    """Ascending-coefficient bracket form, e.g. ``[2,3,1]`` for s^2+3s+2."""
    return "[" + ",".join(f"{c:g}" for c in as_poly(p)) + "]"
