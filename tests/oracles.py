"""Independent reference implementations used to check the package.

Everything here is written from the defining formulas with plain loops,
quadrature, or matrix exponentials, deliberately avoiding the package's
own factored algebra and vectorized code paths.  Slow and small-N only.
The one exception, ``adaptive_ladder_lu``, is a former policy of the
package: its adaptive cutoff ladder solved by the dense LU on every rung.
"""

from __future__ import annotations

import math
from dataclasses import replace

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, lu_factor, lu_solve
from scipy.special import eval_genlaguerre, exp1, gammaln

from qdmr import redfield, sweep


# --- ladder operators and displacement ---------------------------------


def ladder(n: int) -> np.ndarray:
    """Lowering operator b with b|k> = sqrt(k)|k-1>."""
    b = np.zeros((n, n))
    for k in range(1, n):
        b[k - 1, k] = math.sqrt(k)
    return b


def displacement_expm(lam: float, n_cut: int, pad: int = 40) -> np.ndarray:
    """<k| exp(lam (b^dag - b)) |l> via a padded matrix exponential."""
    n = n_cut + pad
    b = ladder(n)
    d = expm(lam * (b.T - b))
    return d[:n_cut, :n_cut]


def displacement_special(lam: float, n_cut: int) -> np.ndarray:
    """The closed-form elements of ``displacement_expm`` from ``scipy.special``:
    sqrt(lo!/hi!) lam^diff exp(-lam^2/2) L_lo^(diff)(lam^2), sign (-1)^diff above
    the diagonal, with lo = min(k, l) and diff = |k - l|."""
    if lam < 0.0:
        return displacement_special(-lam, n_cut).T
    k, l = np.indices((n_cut, n_cut))
    lo = np.minimum(k, l)
    diff = np.abs(k - l)
    log_mag = 0.5 * (gammaln(lo + 1) - gammaln(lo + diff + 1)) + diff * np.log(lam) - 0.5 * lam * lam
    sign = np.where((k < l) & (diff % 2 == 1), -1.0, 1.0)
    return sign * np.exp(log_mag) * eval_genlaguerre(lo, diff, lam * lam)


def coherent_vector(beta: complex, n_cut: int) -> np.ndarray:
    """Fock expansion of |beta>, log-stabilized."""
    k = np.arange(n_cut)
    mag = np.abs(beta)
    if mag == 0.0:
        vec = np.zeros(n_cut, dtype=complex)
        vec[0] = 1.0
        return vec
    log_mag = -0.5 * mag**2 + k * math.log(mag) - 0.5 * gammaln(k + 1.0)
    phase = np.exp(1j * k * np.angle(beta))
    return np.exp(log_mag) * phase


def thermal_matrix(nbar: float, n_cut: int) -> np.ndarray:
    """Gibbs oscillator state with mean occupation nbar, renormalized."""
    if nbar == 0.0:
        rho = np.zeros((n_cut, n_cut))
        rho[0, 0] = 1.0
        return rho
    q = nbar / (1.0 + nbar)
    pops = (1.0 - q) * q ** np.arange(n_cut)
    pops /= pops.sum()
    return np.diag(pops)


# --- lead spectral functions --------------------------------------------


def fermi_ref(energy: float, mu: float, temperature: float) -> float:
    x = (energy - mu) / temperature
    if x > 700.0:
        return 0.0
    if x < -700.0:
        return 1.0
    return 1.0 / (math.exp(x) + 1.0)


def lorentz_ref(energy, gamma_rate, delta, center) -> float:
    return gamma_rate * delta**2 / ((energy - center) ** 2 + delta**2)


def rate_in_ref(energy, lead) -> float:
    return lorentz_ref(
        energy, lead.gamma_rate, lead.delta, lead.gamma_center
    ) * fermi_ref(energy, lead.chem_potential, lead.temperature)


def rate_out_ref(energy, lead) -> float:
    return lorentz_ref(
        energy, lead.gamma_rate, lead.delta, lead.gamma_center
    ) * (1.0 - fermi_ref(energy, lead.chem_potential, lead.temperature))


def rate_equation_current(mu_tilde: float, lead_l, lead_r) -> float:
    """Two-state dot current at zero coupling: g_L g_R / (g_L + g_R) (f_L - f_R)."""
    g_l = lorentz_ref(mu_tilde, lead_l.gamma_rate, lead_l.delta, lead_l.gamma_center)
    g_r = lorentz_ref(mu_tilde, lead_r.gamma_rate, lead_r.delta, lead_r.gamma_center)
    f_l = fermi_ref(mu_tilde, lead_l.chem_potential, lead_l.temperature)
    f_r = fermi_ref(mu_tilde, lead_r.chem_potential, lead_r.temperature)
    return g_l * g_r / (g_l + g_r) * (f_l - f_r)


def bath_correlation_zero_time(lead, kind: str) -> float:
    """C(0) by adaptive quadrature of the rate spectrum over frequency."""
    rate = rate_out_ref if kind == "out" else rate_in_ref

    def integrand(w):
        return rate(w, lead)

    center = lead.gamma_center
    span = 200.0 * lead.delta + 50.0 * lead.temperature
    total = 0.0
    for lo, hi in (
        (-math.inf, center - span),
        (center - span, center + span),
        (center + span, math.inf),
    ):
        part, _ = quad(integrand, lo, hi, limit=400)
        total += part
    return total / (2.0 * math.pi)


def bath_correlation_quad(lead, kind: str, s: float) -> complex:
    """C(s) for s > 0 by Fourier quadrature over the full frequency axis.

    ``kind='out'`` is (1/2pi) int rate_out(w) e^{-iws} dw, ``'in'`` is
    (1/2pi) int rate_in(w) e^{+iws} dw.  The axis is folded onto w >= 0
    (even part against cos, odd part against sin); a finite piece past
    every spectral feature is integrated with QAWO and the infinite
    tail with QAWF (``quad`` with ``weight='cos'``/``'sin'``).
    """
    rate = rate_out_ref if kind == "out" else rate_in_ref

    def even(w):
        return rate(w, lead) + rate(-w, lead)

    def odd(w):
        return rate(w, lead) - rate(-w, lead)

    span = (
        abs(lead.gamma_center) + abs(lead.chem_potential)
        + 200.0 * lead.delta + 50.0 * lead.temperature
    )
    tol = 1e-13 * lead.gamma_rate * lead.delta  # absolute, on the scale of C(0)
    parts = []
    for func, weight in ((even, "cos"), (odd, "sin")):
        head, _ = quad(func, 0.0, span, weight=weight, wvar=s, limit=4000, epsabs=tol, epsrel=0.0)
        tail, _ = quad(func, span, math.inf, weight=weight, wvar=s, limit=4000, limlst=200, epsabs=tol)
        parts.append(head + tail)
    sign = -1.0 if kind == "out" else 1.0
    return complex(parts[0], sign * parts[1]) / (2.0 * math.pi)


def digamma_difference_exact(z1: complex, z2: complex) -> complex:
    """psi(z2) - psi(z1) at 40 significant digits (mpmath), rounded once to
    complex128.  Two float64 digamma values, as ``scipy.special.digamma``
    gives them, each carry a rounding error of about eps |psi(z)|, which
    does not cancel in their difference: at the 10 mK leads that error is
    about 1e-14 |C(0)|."""
    with mpmath.workdps(40):
        return complex(mpmath.digamma(mpmath.mpc(z2)) - mpmath.digamma(mpmath.mpc(z1)))


def bath_correlation_all_poles(lead) -> dict:
    """The pole sum that ``qdmr.leads.bath_correlation`` made before it summed
    only the live poles, kept as an independent reference on the same default
    grid: the first K = max(256, 16 max|z|) Matsubara poles are evaluated at
    every time, s = 0 included (and then overwritten by the digamma closed
    form, ``digamma_difference_exact``), as one dense times x poles product
    per chunk, and the poles past K
    by Euler-Maclaurin (error ~ K^-5) on a pair of exponential integrals.
    Returns ``c_out``, ``c_in``, ``decay_time`` and ``converged``, the memory
    time found as in the package."""
    t_scale = max(1.0 / lead.delta, 1.0 / lead.temperature)
    s = np.linspace(0.0, max(2.0, 20.0 * t_scale), 801)
    g, d, c, mu = lead.gamma_rate, lead.delta, lead.gamma_center, lead.chem_potential
    h = 2.0 * np.pi * lead.temperature
    a, sign = np.array([d, -d]) + 1j * (mu - c), np.array([1.0, -1.0])
    z = 0.5 + a / h
    x = (c - 1j * d - mu) / lead.temperature
    f_pole = 1.0 / (np.exp(x) + 1.0) if x.real <= 0.0 else np.exp(-x) / (1.0 + np.exp(-x))
    lorentz = 0.5 * g * d * np.exp(-1j * (c - 1j * d) * s)
    k_direct = max(256, int(16.0 * np.abs(z).max()))
    nu = h * (np.arange(k_direct) + 0.5)
    window = g * d * d / ((mu - c - 1j * nu) ** 2 + d * d)
    series = np.zeros(s.size, dtype=complex)
    chunk = 2**20 // s.size
    for start in range(0, k_direct, chunk):
        series += np.exp(-np.outer(s, nu[start : start + chunk])) @ window[start : start + chunk]
    nu_k = h * k_direct
    tail = (s > 0.0) & (nu_k * s < 50.0)
    st = s[tail, None]
    series[tail] += 0.5 * g * d * (
        np.exp(a * st) * exp1((nu_k + a) * st) / h
        - h / 24.0 * np.exp(-nu_k * st) * (1.0 / (nu_k + a) ** 2 + st / (nu_k + a))
    ) @ sign
    series[s == 0.0] = 0.5 * g * d / h * digamma_difference_exact(z[0], z[1])
    matsubara = 0.5j * h / np.pi * np.exp(-1j * mu * s) * series

    c_out = lorentz * (1.0 - f_pole) - matsubara
    c_in = np.conj(lorentz * f_pole + matsubara)

    env = np.maximum(np.abs(c_out) / abs(c_out[0]), np.abs(c_in) / abs(c_in[0]))
    above = np.nonzero(env >= 0.01)[0]  # the package's DECAY_THRESHOLD
    if above[-1] == s.size - 1:
        decay_time, converged = float("nan"), False
    else:
        decay_time, converged = float(s[above[-1] + 1]), True
    return {"c_out": c_out, "c_in": c_in, "decay_time": decay_time, "converged": converged}


# --- rank-4 transition tensors, literal loops ----------------------------


def tensors_dense_ref(mu_tilde: float, omega: float, lead, disp: np.ndarray) -> dict:
    """The four rank-4 tensors written out element by element.

    Transition energies are mu_tilde - omega (k - l) for a hop that
    changes the phonon index from l to k; each tensor is the symmetrized
    half-sum of the two operator orderings.
    """
    n = disp.shape[0]

    def e_in(k, l):
        return mu_tilde - omega * (k - l)

    w_in = np.zeros((n, n))
    w_out = np.zeros((n, n))
    v_in = np.zeros((n, n))
    v_out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            w_in[a, b] = sum(
                rate_in_ref(e_in(a, i), lead) * disp[i, a] * disp[i, b] for i in range(n)
            )
            w_out[a, b] = sum(
                rate_out_ref(e_in(i, a), lead) * disp[a, i] * disp[b, i] for i in range(n)
            )
            v_in[a, b] = disp[a, b] * rate_in_ref(e_in(b, a), lead)
            v_out[a, b] = disp[b, a] * rate_out_ref(e_in(a, b), lead)

    r00 = np.zeros((n, n, n, n))
    r01 = np.zeros((n, n, n, n))
    r11 = np.zeros((n, n, n, n))
    r10 = np.zeros((n, n, n, n))
    for j in range(n):
        for m in range(n):
            for k in range(n):
                for l in range(n):
                    r00[j, m, k, l] = 0.5 * (
                        w_in[k, j] * (m == l) + w_in[l, m] * (k == j)
                    )
                    r01[j, m, k, l] = 0.5 * (
                        v_in[j, k] * disp[m, l] + disp[j, k] * v_in[m, l]
                    )
                    r11[j, m, k, l] = 0.5 * (
                        w_out[k, j] * (m == l) + w_out[l, m] * (k == j)
                    )
                    r10[j, m, k, l] = 0.5 * (
                        v_out[j, k] * disp[l, m] + disp[k, j] * v_out[m, l]
                    )
    return {"r00": r00, "r01": r01, "r11": r11, "r10": r10}


def master_rhs_ref(
    omega: float,
    dense_by_lead: list[dict],
    rho0: np.ndarray,
    rho1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise time derivative of both blocks."""
    n = rho0.shape[0]
    d0 = np.zeros_like(rho0)
    d1 = np.zeros_like(rho1)
    for j in range(n):
        for m in range(n):
            d0[j, m] += -1j * omega * (j - m) * rho0[j, m]
            d1[j, m] += -1j * omega * (j - m) * rho1[j, m]
            for dense in dense_by_lead:
                for k in range(n):
                    for l in range(n):
                        d0[j, m] += (
                            -dense["r00"][j, m, k, l] * rho0[k, l]
                            + dense["r10"][j, m, k, l] * rho1[k, l]
                        )
                        d1[j, m] += (
                            -dense["r11"][j, m, k, l] * rho1[k, l]
                            + dense["r01"][j, m, k, l] * rho0[k, l]
                        )
    return d0, d1


def liouvillian_matrix_ref(omega: float, dense_by_lead: list[dict], n: int) -> np.ndarray:
    """Full generator matrix assembled column by column from the dense tensors."""
    jm = np.arange(n)
    phase = -1j * omega * (jm[:, None] - jm[None, :])

    def action(rho0, rho1):
        d0 = phase * rho0
        d1 = phase * rho1
        for dense in dense_by_lead:
            d0 -= np.einsum("jmkl,kl->jm", dense["r00"], rho0)
            d0 += np.einsum("jmkl,kl->jm", dense["r10"], rho1)
            d1 -= np.einsum("jmkl,kl->jm", dense["r11"], rho1)
            d1 += np.einsum("jmkl,kl->jm", dense["r01"], rho0)
        return np.concatenate([d0.ravel(), d1.ravel()])

    dim = 2 * n * n
    matrix = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[col] = 1.0
        matrix[:, col] = action(
            basis[: n * n].reshape(n, n), basis[n * n :].reshape(n, n)
        )
    return matrix


def steady_state_expm(matrix: np.ndarray, n_cut: int, t_step: float = 50.0) -> tuple[np.ndarray, np.ndarray]:
    """Long-time propagation of a maximally mixed start until stationary."""
    dim = 2 * n_cut * n_cut
    rho0 = np.eye(n_cut, dtype=complex) / (2 * n_cut)
    rho1 = np.eye(n_cut, dtype=complex) / (2 * n_cut)
    vec = np.concatenate([rho0.ravel(), rho1.ravel()])
    prop = expm(matrix * t_step)
    for _ in range(60):
        vec = prop @ vec
        if np.abs(matrix @ vec).max() < 1e-12:
            break
    return vec[: dim // 2].reshape(n_cut, n_cut), vec[dim // 2 :].reshape(n_cut, n_cut)


# --- dense Kronecker generator and its bordered LU solve (small N) --------


def liouvillian_dense(config, tensors) -> np.ndarray:
    """The whole 2N^2 x 2N^2 complex generator, assembled with np.kron.

    Each lead adds (kron(a, b) + kron(b, a)) / 2 to the block it feeds, in
    lead order; the two loss blocks are negated; the coherent diagonal is
    added last.  The row blocks of the solve (``redfield._row_blocks``) must
    reproduce it bit for bit.
    """
    n = config.system.n_cut
    omega = config.system.omega
    eye = np.eye(n)
    nn = n * n

    def lead_sum(pair) -> np.ndarray:
        acc = np.zeros((nn, nn))
        for t in tensors:
            a, b = pair(t)
            acc += 0.5 * (np.kron(a, b) + np.kron(b, a))
        return acc

    mat = np.zeros((2 * nn, 2 * nn), dtype=complex)
    mat.real[:nn, :nn] = -lead_sum(lambda t: (t.w_in.T, eye))
    mat.real[:nn, nn:] = lead_sum(lambda t: (t.v_out, t.displacement.T))
    mat.real[nn:, :nn] = lead_sum(lambda t: (t.v_in, t.displacement))
    mat.real[nn:, nn:] = -lead_sum(lambda t: (t.w_out.T, eye))

    jm = np.arange(n)
    coherent = (-1j * omega * (jm[:, None] - jm[None, :])).reshape(-1)
    di = np.arange(nn)
    mat[di, di] += coherent
    mat[nn + di, nn + di] += coherent
    return mat


def population_dominance(mat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, 2|L_ii| - sum_k |L_ik|) over the 2N population rows of the whole matrix."""
    t_block = np.eye(n).reshape(-1)
    rows = np.flatnonzero(np.concatenate([t_block, t_block]))
    return rows, 2.0 * np.abs(mat[rows, rows]) - np.abs(mat[rows]).sum(axis=1)


def steady_state_bordered_lu(
    mat: np.ndarray, n: int, row: int | None = None
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """(rho0, rho1, bordered row, max|mat x|) of the bordered LU solve on the
    whole matrix: ``row`` (by default the least diagonally dominant
    population row) replaced by the trace functional, two refinement
    passes, Hermitian part, trace one.  The arithmetic
    ``redfield.steady_state`` must reproduce.
    """
    nn = n * n
    t_block = np.eye(n).reshape(-1)
    t = np.concatenate([t_block, t_block]).astype(complex)
    if row is None:
        rows, dominance = population_dominance(mat, n)
        row = int(rows[np.argmin(dominance)])
    bordered = mat.copy()
    bordered[row] = t
    rhs = np.zeros(2 * nn, dtype=complex)
    rhs[row] = 1.0
    lu = lu_factor(bordered, check_finite=False)
    x = lu_solve(lu, rhs, check_finite=False)
    for _ in range(2):
        x = x + lu_solve(lu, rhs - bordered @ x, check_finite=False)
    rho0 = x[:nn].reshape(n, n)
    rho1 = x[nn:].reshape(n, n)
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    rho1 = 0.5 * (rho1 + rho1.conj().T)
    tr = float(np.trace(rho0).real + np.trace(rho1).real)
    rho0 = rho0 / tr
    rho1 = rho1 / tr
    residual = float(np.abs(mat @ np.concatenate([rho0.reshape(-1), rho1.reshape(-1)])).max())
    return rho0, rho1, row, residual


# --- the adaptive cutoff ladder, the dense LU on every rung ------------------


def adaptive_ladder_lu(config, outputs):
    """``sweep.run_point(config, outputs, n_cut_policy="adaptive")`` as it was
    when every rung ran ``evaluate_point`` with the LU and the stop rule read
    its state; at lam = 0 the closed-form point of the default solve.  The
    ADAPTIVE_* constants are read from ``qdmr.sweep`` at call time, so a
    test can shorten the ladder."""
    n = config.system.n_cut
    try:
        if config.system.lam == 0.0:
            return sweep.evaluate_point(config, outputs)
        result = None
        n = sweep.ADAPTIVE_START
        while True:
            cfg = replace(config, system=replace(config.system, n_cut=n))
            prev = result
            result = sweep.evaluate_point(cfg, outputs, solve=redfield.steady_state)
            tail_ok = result.lab_state is not None and result.lab_state.fock_tail < sweep.ADAPTIVE_TAIL_TOL
            drift_ok = True
            if "phasespace" in outputs:  # the torotropy must also settle, so at least two sizes
                drift_ok = prev is not None
                if drift_ok and prev.torotropy and result.torotropy:
                    a, b = prev.torotropy.value, result.torotropy.value
                    scale = max(abs(a), abs(b))
                    drift_ok = abs(a - b) <= sweep.ADAPTIVE_DRIFT_TOL * scale or scale < 1e-9
            if tail_ok and drift_ok:
                return result
            if n >= sweep.ADAPTIVE_CAP:
                return replace(result, status="n_cut_cap")
            n += sweep.ADAPTIVE_STEP
    except Exception as exc:
        return sweep._failed(n, exc)


# --- phase space ----------------------------------------------------------


def husimi_fock(m: int, alpha: complex) -> float:
    r2 = abs(alpha) ** 2
    return math.exp(-r2) * r2**m / (math.pi * math.factorial(m))


def husimi_coherent(beta: complex, alpha: complex) -> float:
    return math.exp(-abs(alpha - beta) ** 2) / math.pi


def husimi_thermal(nbar: float, alpha: complex) -> float:
    return math.exp(-abs(alpha) ** 2 / (1.0 + nbar)) / (math.pi * (1.0 + nbar))


def husimi_einsum(rho: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """<alpha| rho |alpha> / pi from the overlap vectors <k|alpha> (Fock index
    last), contracted by ``np.einsum`` as ``phasespace.husimi`` once was."""
    return np.einsum("...k,kl,...l->...", overlaps.conj(), rho, overlaps).real / math.pi


def rearrangement_gap_ref(radii, values, dr: float) -> float:
    """Radius-weighted distance to the sorted-descending profile, by loop."""
    ordered = sorted(values, reverse=True)
    total = 0.0
    for r, q, q_sorted in zip(radii, values, ordered):
        total += r * (q - q_sorted) * dr
    return total


def passive_energy_brute(rho: np.ndarray, omega: float) -> float:
    """Minimum energy over all population permutations (factorial cost)."""
    from itertools import permutations

    pops = np.linalg.eigvalsh(rho)
    levels = omega * np.arange(rho.shape[0])
    return min(float(np.dot(perm, levels)) for perm in permutations(pops))
