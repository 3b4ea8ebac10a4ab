"""Fock-space algebra for the resonator mode.

Closed-form matrix elements of the displacement operator
exp(lam*(b^dag - b)) in the number basis, and coherent-state overlap
vectors used for phase-space evaluation.  Factorial ratios are handled
in log space so large truncations stay finite.
"""

from __future__ import annotations

import numpy as np
from scipy.special import eval_genlaguerre, gammaln


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
    log_mag = 0.5 * (gammaln(lo + 1) - gammaln(lo + diff + 1)) + diff * np.log(lam) - 0.5 * lam * lam
    sign = np.where((k < l) & (diff % 2 == 1), -1.0, 1.0)
    return sign * np.exp(log_mag) * eval_genlaguerre(lo, diff, lam * lam)


def coherent_overlap(alpha: complex | np.ndarray, n_cut: int) -> np.ndarray:
    """Overlap vector c with c[..., k] = <k|alpha> = e^{-|alpha|^2/2} alpha^k / sqrt(k!).

    Accepts scalar or array ``alpha``; the Fock index is appended as the
    last axis.  Evaluated by the stable ratio recurrence
    c_{k+1} = c_k * alpha / sqrt(k+1), which never overflows; overlaps
    below double-precision range underflow harmlessly to zero.
    """
    a = np.asarray(alpha, dtype=complex)
    out = np.empty(a.shape + (n_cut,), dtype=complex)
    out[..., 0] = np.exp(-0.5 * np.abs(a) ** 2)
    for k in range(1, n_cut):
        out[..., k] = out[..., k - 1] * a / np.sqrt(k)
    return out
