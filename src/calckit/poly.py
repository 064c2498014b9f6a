"""Real polynomial kernel: ascending-power coefficient arrays, arithmetic,
Horner evaluation, and simultaneous (Durand-Kerner / Weierstrass) root
iteration. Shared by the ODE and transfer-function layers."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError

TRIM_RTOL = 1e-12


def as_poly(c) -> np.ndarray:
    p = np.array(c, dtype=float, ndmin=1)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("polynomial coefficients must form a nonempty 1-D sequence")
    if not np.isfinite(p).all():
        raise DomainError("polynomial coefficients must be finite")
    return p


def trim(c) -> np.ndarray:
    """Drop trailing (high-power) coefficients below 1e-12 relative."""
    p = as_poly(c)
    magnitudes = np.abs(p)
    scale = magnitudes.max()
    if scale == 0.0:
        return np.zeros(1)
    keep = np.flatnonzero(magnitudes > TRIM_RTOL * scale)
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


@np.errstate(all="ignore")     # an overflowed sweep ends in ConvergenceError
def roots_dk(p, tol: float = 1e-12, max_iters: int = 500) -> list[complex]:
    """All roots by simultaneous Weierstrass iteration, sorted by (real, imag).

    Starts from points on a circle, the angles offset by 0.4 rad, whose
    radius is Fujiwara's bound on every root, 2 max(|c_{n-1} / c_n|,
    |c_{n-2} / c_n|^(1/2), ..., |c_0 / (2 c_n)|^(1/n)) (Tohoku Math. J. 10,
    1916). Stops when every update falls below max(tol * min(1, radius),
    5e-324), or when every |p(z_i)| is within Horner's rounding bound
    2 deg eps sum |c_j| |z_i|^j, where further updates are rounding noise (the
    stopping rule of Bini, Numer. Algorithms 13, 1996). Each sweep runs on
    Python complex scalars, forms every Weierstrass product left to right and
    divides by numpy's complex128 division, so the iterates are bit for bit
    those of numpy array arithmetic. The sweep's error is relative to the
    largest root, so each root then takes three Newton steps on p, a step kept
    only where it lowers |p|: a simple root far smaller than the others comes
    back to rounding relative to itself. The coefficients are real, so a root
    within tol |z| of the real axis comes back on it, and the others as exact
    conjugate pairs, -imag first. Clustered (multiple) roots converge
    slowly and lose accuracy in proportion to their multiplicity; call with a
    looser tol there.
    """
    if max_iters < 1:
        raise DomainError(f"root iteration budget must be at least 1, got {max_iters}")
    p = trim(p)
    deg = len(p) - 1
    if deg < 1:
        raise DomainError("root finding needs degree >= 1")
    ratios = np.abs(p[-2::-1] / p[-1])      # |c_{n-k} / c_n| for k = 1..n
    ratios[-1] /= 2.0
    radius = 2.0 * float(np.max(ratios ** (1.0 / np.arange(1, deg + 1))))
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    z = (radius * np.exp(1j * angles)).tolist()
    coeffs, magnitudes = p.astype(complex).tolist(), np.abs(p).astype(complex).tolist()
    lead = coeffs[-1]
    rounding = 2.0 * deg * float(np.finfo(float).eps)
    stop = max(tol * min(1.0, radius), 5e-324)      # a subnormal radius cannot stop at 0
    for _ in range(max_iters):
        values = [_horner(coeffs, zi) for zi in z]
        updates = []
        for i, zi in enumerate(z):
            prod = 1.0 + 0.0j
            for j, zj in enumerate(z):
                d = zi - zj if j != i else 1.0 + 0.0j
                prod *= d if d else 1e-30 + 0.0j     # coincident iterates
            updates.append(complex(np.complex128(values[i]) / (lead * prod)))
        old, z = z, [zi - u for zi, u in zip(z, updates)]
        if all(abs(u) < stop for u in updates) or all(
                abs(v) <= rounding * _horner(magnitudes, complex(abs(zi))).real
                for v, zi in zip(values, old)):
            return _finish(coeffs, z, tol)
    raise ConvergenceError(
        f"root iteration did not settle in {max_iters} iterations "
        f"(last update {np.max(np.abs(updates)):.3e})"
    )


def _finish(coeffs, z, tol) -> list[complex]:
    """Polish, snap and pair the swept roots of p, sorted by (real, imag)."""
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    for _ in range(3):                  # a Newton step on p, kept only where |p| falls
        z = [min(zi, zi - _horner(coeffs, zi) / d if (d := _horner(deriv, zi)) else zi,
                 key=lambda r: abs(_horner(coeffs, r))) for zi in z]
    z.sort(key=lambda r: r.imag)
    k = min(sum(r.imag > tol * abs(r) for r in z), sum(r.imag < -tol * abs(r) for r in z))
    z[:k] = [r.conjugate() for r in reversed(z[len(z) - k:])]     # the k upper roots mirrored
    z[k:len(z) - k] = [complex(r.real, 0.0) for r in z[k:len(z) - k]]   # the rest on the axis
    return sorted(z, key=lambda r: (r.real, r.imag))


def format_poly(p) -> str:
    """Ascending-coefficient bracket form, e.g. ``[2,3,1]`` for s^2+3s+2."""
    return "[" + ",".join(f"{c:g}" for c in as_poly(p)) + "]"
