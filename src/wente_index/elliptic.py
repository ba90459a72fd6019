"""Complete elliptic integrals of the first kind and the Jacobi cn function.

Both are evaluated through the arithmetic-geometric mean, which converges
quadratically and reaches full double precision in at most ~8 iterations
for any modulus k in [0, 1).  These are the only special functions the
rest of the library needs: K(k) fixes the periods of the planar curvature
lines, and cn enters the potential of the stability operator.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["complete_K", "jacobi_cn"]

# AGM stalls at ~1 ulp, so the stopping test must sit at relative machine
# epsilon; the iteration cap is a safety net, never reached in practice.
_AGM_RTOL = 4.0 * np.finfo(float).eps
_AGM_MAX_ITER = 64


def _modulus(k: float) -> float:
    """k as a float; ValueError unless 0 <= k < 1, which NaN fails too."""
    k = float(k)
    if not (0.0 <= k < 1.0):
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k}")
    return k


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind K(k) via the AGM.

    K(k) = pi / (2 * agm(1, k')) with k' the complementary modulus.
    Relative error is at the rounding level (<= a few ulp, well under 1e-14).

    Raises ValueError for k outside [0, 1).
    """
    k = _modulus(k)
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _agm_scale(k: float) -> tuple[list[float], list[float]]:
    """Descending AGM sequence a_n, c_n started from (1, k', k)."""
    a = [1.0]
    b = math.sqrt((1.0 - k) * (1.0 + k))
    c = [k]
    for _ in range(_AGM_MAX_ITER):
        if abs(c[-1]) <= np.finfo(float).eps:
            break
        a_next = 0.5 * (a[-1] + b)
        c.append(0.5 * (a[-1] - b))
        b = math.sqrt(a[-1] * b)
        a.append(a_next)
    return a, c


def jacobi_cn(u, k: float):
    """Jacobi elliptic cn(u; k), vectorized over u.

    The argument is folded by evenness and the 4K period before the AGM
    phase recursion runs, so accuracy is uniform in u.  Scalar input gives
    a scalar back; array input gives an array of the same shape.
    """
    k = _modulus(k)
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0

    if k == 0.0:
        out = np.cos(u_arr)
        return float(out) if scalar else out

    big_k = complete_K(k)
    # cn is even and 4K-periodic; fold into [0, 2K] (cn(4K - v) = cn(v)).
    v = np.abs(u_arr)
    v = np.mod(v, 4.0 * big_k)
    v = np.where(v > 2.0 * big_k, 4.0 * big_k - v, v)

    a, c = _agm_scale(k)
    n_steps = len(a) - 1
    phi = (2.0 ** n_steps) * a[n_steps] * v
    for n in range(n_steps, 0, -1):
        # |c_n/a_n| < 1, but rounding can push the sine product past 1.
        s = np.clip(c[n] / a[n] * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(s))
    out = np.cos(phi)
    return float(out) if scalar else out
