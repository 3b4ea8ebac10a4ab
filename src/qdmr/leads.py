"""Reservoir statistics, energy-dependent tunneling rates, and the
memory-time diagnostic for the leads.

Directional rates follow the convention used throughout: the 0->1 rate
is the Lorentzian window times the Fermi occupation (an electron enters
the dot from the lead), the 1->0 rate uses the hole factor 1 - f.

The bath correlators are exact residue sums, with no frequency grid.
For s > 0 the transform of window * h (h = 1 - f or f, kernel e^{-iws})
closes in the lower half plane: the Lorentzian pole p = c - i*delta
gives (gamma*delta/2) h(p) e^{-ips}, the Fermi poles mu - i*nu_k,
nu_k = pi*T*(2k+1), give -/+ i*T sum_k window(mu - i*nu_k) e^{-i*mu*s - nu_k*s}.
At s = 0 that Matsubara series is -/+ i*gamma*delta/(4pi) (psi(z2) - psi(z1))
with z1,2 = 1/2 + (+/-delta + i(mu - c))/(2pi*T).  The digamma difference
is formed as one difference, in plain floating point: ``_digamma_difference``
shifts both arguments up until Re z >= 1/2 and |z| >= DIGAMMA_SHIFT and
takes the asymptotic series of the shifted pair (Abramowitz & Stegun
6.3.18) as a log ratio and a difference of Bernoulli tails, so the two
digamma values, which cancel where |C(0)| is small, are never formed.

The traces live on one grid: 801 times from 0 to max(2 ns, 20 max(1/delta,
1/T)).  Only live pole terms are evaluated: a term e^{-nu_k s} below e^-50
(about 2e-22) is dropped.  Term k is live at s > 0 iff nu_k s <= 50, so a
time has floor(50/(2 pi T s) + 1/2) live poles, and every live (time, pole)
term is evaluated in one gather.  The grid step is at least 1/(40 T), so
2 pi T s >= pi/20 and no time has more than 318 live poles: a call costs at
most about 2.7k exponentials.  On the reference leads (delta_mu = -40,
delta_t_mk = 40) lead L has 1713 live terms and lead R 2262.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import LeadParams

DECAY_THRESHOLD = 0.01  # fraction of |C(0)| below which the bath memory has decayed
# |z| from which ``_digamma_difference`` takes the asymptotic series; there the
# first omitted term, B_18 / (18 z^18), is below 1e-21
DIGAMMA_SHIFT = 16.0
# B_2k / 2k for k = 8, ..., 1, the Bernoulli tail of psi(z) ~ ln z - 1/(2z) - sum B_2k / (2k z^2k)
_BERNOULLI_TAIL = (-3617 / 8160, 1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)


def fermi(energy, mu: float, temperature: float):
    """Fermi-Dirac occupation 1/(exp((E-mu)/T) + 1), overflow-safe.

    Vectorized over ``energy``; exact limits 0 and 1 are returned once
    the exponent magnitude exceeds 700.
    """
    x = (np.asarray(energy, dtype=float) - mu) / temperature
    out = np.empty_like(x)
    big = x > 700.0
    small = x < -700.0
    mid = ~(big | small)
    out[big] = 0.0
    out[small] = 1.0
    out[mid] = 1.0 / (np.exp(x[mid]) + 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def tunneling_rate(energy, lead: LeadParams):
    """Lorentzian window: gamma_rate * delta^2 / ((E - gamma_center)^2 + delta^2)."""
    e = np.asarray(energy, dtype=float)
    d2 = lead.delta**2
    out = lead.gamma_rate * d2 / ((e - lead.gamma_center) ** 2 + d2)
    if out.ndim == 0:
        return float(out)
    return out


def rate_in(energy, lead: LeadParams):
    """0 -> 1 transition rate: window times Fermi occupation."""
    return tunneling_rate(energy, lead) * fermi(energy, lead.chem_potential, lead.temperature)


def rate_out(energy, lead: LeadParams):
    """1 -> 0 transition rate: window times hole occupation 1 - f."""
    return tunneling_rate(energy, lead) * (1.0 - fermi(energy, lead.chem_potential, lead.temperature))


@dataclass(frozen=True)
class CorrelationTrace:
    """Lead bath-correlation functions on a time grid (times in ns).

    ``c_out`` is the hole-sector correlator (Fourier transform of
    window * (1-f) with kernel e^{-i w s}), ``c_in`` the particle-sector
    one (window * f with kernel e^{+i w s}).  ``decay_time`` is the
    first time after which both envelopes stay below
    ``threshold * |C(0)|``; ``converged`` is False when that never
    happens inside the grid.
    """

    label: str
    times: np.ndarray
    c_out: np.ndarray
    c_in: np.ndarray
    threshold: float
    decay_time: float
    converged: bool


def _digamma_difference(z1: complex, z2: complex) -> complex:
    """psi(z2) - psi(z1), formed as one difference with no SciPy.

    Both arguments are shifted up by the same n until each has Re z >= 1/2
    and |z| >= DIGAMMA_SHIFT, by psi(z) = psi(z + n) - sum_k 1/(z + k), whose
    shift terms pair up as (z2 - z1) / ((z1 + k)(z2 + k)).  The shifted pair
    takes the asymptotic series (Abramowitz & Stegun 6.3.18): the log ratio
    log(z2 / z1), as log1p((z2 - z1) / z1) while that ratio is within 1/2
    of 1, plus (z2 - z1) / (2 z1 z2), less the difference of the two
    Bernoulli tails.  A pole of psi (z a non-positive integer) gives a
    ``ZeroDivisionError``.
    """
    dz = z2 - z1
    least = math.sqrt(max(DIGAMMA_SHIFT**2 - min(z1.imag**2, z2.imag**2), 0.25))  # the Re z the shift reaches
    n = max(0, math.ceil(least - min(z1.real, z2.real)))
    shift = 0j
    for _ in range(n):
        shift += 1.0 / (z1 * z2)
        z1 += 1.0
        z2 += 1.0
    w = dz / z1
    if abs(w) > 0.5:
        log = cmath.log(z2 / z1)
    else:  # log1p of a complex w, accurate to rounding as w -> 0
        log = complex(0.5 * math.log1p(w.real * (2.0 + w.real) + w.imag * w.imag), math.atan2(w.imag, 1.0 + w.real))
    w1, w2 = 1.0 / (z1 * z1), 1.0 / (z2 * z2)
    tail1 = tail2 = 0j
    for coefficient in _BERNOULLI_TAIL:
        tail1 = tail1 * w1 + coefficient
        tail2 = tail2 * w2 + coefficient
    return dz * shift + log + 0.5 * dz / (z1 * z2) - (tail2 * w2 - tail1 * w1)


def bath_correlation(lead: LeadParams) -> CorrelationTrace:
    """Evaluate both bath correlators and estimate the memory time.

    The grid has 801 times from 0 to 20 memory times (window width 1/delta
    or thermal time 1/T), at least 2 ns; times are in ns (reciprocal angular
    GHz).  s = 0 is the digamma closed form, one ``_digamma_difference``
    with numpy and ``math`` only.  A time s > 0 sums its
    floor(50/(2 pi T s) + 1/2) live Matsubara poles directly, in pole order:
    the flat (time, pole) terms are gathered with ``np.repeat`` and summed
    per time with ``np.bincount``.  The step is at least 20/(800 T), so
    2 pi T s >= pi/20 and no time has more than 318 live poles; a call
    evaluates at most about 2.7k exponentials and holds well under 1 MiB.
    """
    t_scale = max(1.0 / lead.delta, 1.0 / lead.temperature)
    times = np.linspace(0.0, max(2.0, 20.0 * t_scale), 801)
    s = times[1:]
    g, d, c, mu = lead.gamma_rate, lead.delta, lead.gamma_center, lead.chem_potential
    h = 2.0 * np.pi * lead.temperature
    x = (c - 1j * d - mu) / lead.temperature  # Fermi function at the Lorentzian pole
    f_pole = 1.0 / (np.exp(x) + 1.0) if x.real <= 0.0 else np.exp(-x) / (1.0 + np.exp(-x))
    lorentz = 0.5 * g * d * np.exp(-1j * (c - 1j * d) * times)
    # nu_k s <= 50 iff k + 1/2 <= 50/(h s): floor(50/(h s) + 1/2) live poles
    count = np.floor(50.0 / h / s + 0.5).astype(np.intp)
    nu = h * (np.arange(count[0]) + 0.5)  # the first time has the most live poles
    window = g * d * d / ((mu - c - 1j * nu) ** 2 + d * d)
    rows = np.repeat(np.arange(s.size), count)
    poles = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    decay = np.exp(-s[rows] * nu[poles])
    series = np.empty(times.size, dtype=complex)
    series.real[1:] = np.bincount(rows, decay * window.real[poles], s.size)
    series.imag[1:] = np.bincount(rows, decay * window.imag[poles], s.size)
    # window(mu - i*nu) = g*d/(2h) * sum(sign / (k + z)) over z1,2 = 1/2 + (+/-d + i(mu - c))/h
    z1, z2 = complex(0.5 + d / h, (mu - c) / h), complex(0.5 - d / h, (mu - c) / h)
    series[0] = 0.5 * g * d / h * _digamma_difference(z1, z2)
    matsubara = 0.5j * h / np.pi * np.exp(-1j * mu * times) * series

    c_out = lorentz * (1.0 - f_pole) - matsubara
    c_in = np.conj(lorentz * f_pole + matsubara)

    env = np.maximum(np.abs(c_out) / abs(c_out[0]), np.abs(c_in) / abs(c_in[0]))
    above = np.nonzero(env >= DECAY_THRESHOLD)[0]
    if above.size == 0:
        decay_time, converged = float(times[0]), True
    elif above[-1] == times.size - 1:
        decay_time, converged = float("nan"), False
    else:
        decay_time, converged = float(times[above[-1] + 1]), True

    return CorrelationTrace(
        label=lead.label, times=times, c_out=c_out, c_in=c_in,
        threshold=DECAY_THRESHOLD, decay_time=decay_time, converged=converged,
    )
