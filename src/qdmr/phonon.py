"""Fock-space algebra for the resonator mode.

Closed-form matrix elements of the displacement operator
exp(lam*(b^dag - b)) in the number basis, and coherent-state overlap
vectors used for phase-space evaluation.  Factorial ratios are handled
in log space so large truncations stay finite.

log(k!) and the Laguerre polynomials follow, in numpy only, the arithmetic of the
Cephes routines behind SciPy's ``gammaln``, integer-order ``eval_genlaguerre`` and
``binom``: D is bit for bit SciPy's at N <= 40 (above, within 2e-15 relative).
"""

from __future__ import annotations

import functools
import math

import numpy as np

# the coefficients of Cephes lgam's Stirling series, highest power first
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorial(k: int) -> float:
    """log(k!) as Cephes ``lgam(k + 1)``: the exact factorial below 13, then
    its Stirling series (whose large-argument form, from 1000, is not kept)."""
    x = float(k + 1)
    if x < 13.0:
        return math.log(float(math.factorial(k)))
    p = 1.0 / (x * x)
    series = functools.reduce(lambda acc, c: acc * p + c, _LGAM_A)  # Horner, as Cephes polevl
    return (x - 0.5) * math.log(x) - x + 0.91893853320467274178 + series / x  # the constant is log(sqrt(2 pi))


@functools.cache
def _factorial_tables(n_cut: int) -> tuple[np.ndarray, ...]:
    """Read-only tables for k, m, a < n_cut: log k!, binom(m + a, m) (Cephes' product loop
    over min(m, a), the numerator divided out past 1e50), and the Laguerre
    recurrence's k + a + 1 and k / (k + a + 1) at k = m - 1, m >= 2."""
    log_fact = np.array([_log_factorial(k) for k in range(n_cut)])
    m, a = np.indices((n_cut, n_cut), dtype=float)
    n, kx = m + a, np.minimum(m, a)
    num, den = np.ones_like(n), np.ones_like(n)
    for i in range(1, n_cut):
        live = i <= kx
        num = np.where(live, num * (i + n - kx), num)
        den = np.where(live, den * i, den)
        big = np.abs(num) > 1e50
        num, den = np.where(big, num / den, num), np.where(big, 1.0, den)
    k = m[1:-1]  # the recurrence's k = m - 1, on its rows m = 2 .. n_cut - 1
    kap = k + a[1:-1] + 1
    tables = (log_fact, num / den, kap, k / kap)
    for table in tables:
        table.flags.writeable = False
    return tables


def _genlaguerre(x: float, n_cut: int) -> np.ndarray:
    """L[m, a] = L_m^(a)(x) for m, a < n_cut, as SciPy's integer-order
    ``eval_genlaguerre``: closed forms at m = 0, 1, then the recurrence for
    L_m / binom(m + a, m), run for every order a at once."""
    _, binom, kap, ratio = _factorial_tables(n_cut)
    a = np.arange(n_cut, dtype=float)
    out = np.ones((n_cut, n_cut))
    out[1:2] = -x + a + 1  # row m = 1, where there is one
    coef = -x / kap
    d = -x / (a + 1)
    p = d + 1
    for j in range(n_cut - 2):
        d = coef[j] * p + ratio[j] * d
        p = p + d
        out[j + 2] = p
    out[2:] *= binom[2:]
    return out


def displacement_matrix(lam: float, n_cut: int) -> np.ndarray:
    """Real matrix D with D[k, l] = <k| exp(lam (b^dag - b)) |l>.

    Exact infinite-dimensional elements, truncated to ``n_cut``: the
    matrix is therefore only approximately unitary, with deviations
    confined to the high-index corner.  D(0) is the identity and
    D(-lam) = D(lam)^T.
    """
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    if lam == 0.0:
        return np.eye(n_cut)
    if lam < 0.0:
        return displacement_matrix(-lam, n_cut).T

    k, l = np.indices((n_cut, n_cut))
    lo = np.minimum(k, l)
    diff = np.abs(k - l)
    # sqrt(lo!/hi!) * lam^diff * exp(-lam^2/2), assembled in log space
    log_fact = _factorial_tables(n_cut)[0]
    log_mag = 0.5 * (log_fact[lo] - log_fact[lo + diff]) + diff * np.log(lam) - 0.5 * lam * lam
    sign = np.where((k < l) & (diff % 2 == 1), -1.0, 1.0)
    return sign * np.exp(log_mag) * _genlaguerre(lam * lam, n_cut)[lo, diff]


def coherent_overlap(alpha: complex | np.ndarray, n_cut: int) -> np.ndarray:
    """Overlap vector c with c[..., k] = <k|alpha> = e^{-|alpha|^2/2} alpha^k / sqrt(k!).

    Accepts scalar or array ``alpha``; the Fock index is appended as the
    last axis, and a real ``alpha`` gives a real vector.  Evaluated as one
    cumulative product along the Fock axis of e^{-|alpha|^2/2} and the
    ratios alpha * (1/sqrt(k)), which never overflows; overlaps below
    double-precision range underflow harmlessly to zero.
    """
    a = np.asarray(alpha, dtype=float if np.isrealobj(alpha) else complex)
    out = np.empty(a.shape + (n_cut,), dtype=a.dtype)
    out[..., 0] = np.exp(-0.5 * np.abs(a) ** 2)
    out[..., 1:] = a[..., None] * (1.0 / np.sqrt(np.arange(1, n_cut)))
    return np.cumprod(out, axis=-1, out=out)
