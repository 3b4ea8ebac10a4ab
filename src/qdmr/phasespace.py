"""Phase-space analysis of the resonator state.

The central quantity is the torotropy: a scalar that is positive when
the Husimi distribution has a bump (a local rise) along *every*
half-line fanning out from the oscillation center, as a limit cycle
does, and exactly zero for any radially monotone (bell-shaped)
distribution.  For each angle phi the radial restriction of Q is
normalized to a unit line integral, compared against its own
non-increasing rearrangement, and the gap is weighted by radius and by
the inverse profile entropy; the reported value is the minimum over the
angle fan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phonon import coherent_overlap
from .redfield import BlockDensityMatrix, FrameError

DEFAULT_ANGLES = (0.0, 0.5 * math.pi, math.pi, 0.75 * math.pi)
WIDE_ANGLE_COUNT = 16


class InvalidStateError(ValueError):
    """Reduced state violates positivity beyond numerical tolerance."""


class EntropyDegenerateError(ValueError):
    """Profile entropy is non-positive; the radial step is too coarse."""


def reduce_resonator(state: BlockDensityMatrix) -> tuple[np.ndarray, float]:
    """Trace out the dot: rho_qmr = rho0 + rho1 (lab frame required).

    Returns the reduced matrix and the smallest eigenvalue found before
    cleanup.  Eigenvalues in [-1e-4, 0) are clipped to zero with trace
    renormalization; anything below -1e-4 raises.
    """
    if state.frame != "lab":
        raise FrameError("reduce_resonator requires a lab-frame state")
    rho = state.rho0 + state.rho1
    rho = 0.5 * (rho + rho.conj().T)
    vals, vecs = np.linalg.eigh(rho)
    min_eig = float(vals[0])
    if min_eig < -1e-4:
        raise InvalidStateError(f"reduced state has eigenvalue {min_eig:.3e} < -1e-4")
    if min_eig < 0.0:
        vals = np.clip(vals, 0.0, None)
        rho = (vecs * vals) @ vecs.conj().T
        rho /= np.trace(rho).real
    return rho, min_eig


def husimi(rho_qmr: np.ndarray, alpha) -> np.ndarray | float:
    """Q(alpha) = <alpha| rho |alpha> / pi, vectorized over alpha, in real arithmetic.

    With rho = S + iA and the overlaps c = x + iy, Q = (x^T S x + y^T S y - 2 x^T A y) / pi: one real
    BLAS product of the coordinates (x_0, y_0, x_1, ...), a view of c, with the real form of rho, of
    2 x 2 blocks [[S_jk, -A_jk], [A_jk, S_jk]]; for a real alpha (real overlaps), x^T S x.
    """
    c = coherent_overlap(alpha, len(rho_qmr))
    m = np.ascontiguousarray(rho_qmr.real)
    if np.iscomplexobj(c):
        c, m = c.view(float), np.empty((2 * len(rho_qmr),) * 2)
        m[0::2, 0::2] = m[1::2, 1::2] = rho_qmr.real
        m[1::2, 0::2], m[0::2, 1::2] = rho_qmr.imag, -rho_qmr.imag
    q = ((c @ m) * c).sum(-1) / math.pi
    return float(q) if q.ndim == 0 else q


def auto_extent(rho_qmr: np.ndarray) -> float:
    """Phase-space radius 3 (sqrt(<N_ph>) + 1) that holds the state's Husimi function."""
    n_ph = float(np.sum(np.arange(rho_qmr.shape[0]) * np.diagonal(rho_qmr).real))
    return 3.0 * (math.sqrt(max(n_ph, 0.0)) + 1.0)


def barycenter(rho_qmr: np.ndarray) -> complex:
    """Exact phase-space mean tr(rho b) = sum_k sqrt(k) rho[k, k-1]."""
    n = rho_qmr.shape[0]
    k = np.arange(1, n)
    return complex(np.sum(np.sqrt(k) * np.diagonal(rho_qmr, -1)))


@dataclass(frozen=True)
class RadialProfile:
    """Husimi restriction to a half-line, normalized to unit line integral."""

    phi: float
    radii: np.ndarray
    values: np.ndarray
    dr: float

    def entropy(self) -> float:
        pos = self.values[self.values > 0.0]
        return float(-(pos * np.log(pos)).sum() * self.dr)


def radial_profile(rho_qmr: np.ndarray, center: complex, phi: float, *, dr: float = 0.02) -> RadialProfile:
    """Sample Q along center + r e^{i phi}, r >= 0, analytically at each point: the one-ray ``_fan``."""
    return _fan(rho_qmr, center, (phi,), dr)[0]


def _fan(rho_qmr: np.ndarray, center: complex, angles, dr: float) -> tuple[RadialProfile, ...]:
    """The normalized profile of each ray center + r e^{i phi}, r >= 0, in angle order.

    Each ray ends at ``auto_extent`` + |center|, extended by 1 until the raw Husimi value there drops
    below 1e-10 (or the end reaches 60), with one ``husimi`` call for the ends of all rays per step.
    From a real center the rays at phi = 0 and pi are sampled at real alpha, with a step of exactly
    +1 and -1: one real product per point.
    """
    real = center.imag == 0.0
    rays = [(center.real, math.cos(phi)) if real and phi in (0, math.pi) else (center, np.exp(1j * phi)) for phi in angles]
    origins, steps = np.array(rays).T
    ends = np.full(len(rays), auto_extent(rho_qmr) + abs(center))
    live = np.arange(len(rays))
    while live.size:
        q = husimi(rho_qmr, origins[live] + ends[live] * steps[live])
        live = live[(q > 1e-10) & (ends[live] < 60.0)]
        ends[live] += 1.0
    profiles = []
    for phi, (origin, step), end in zip(angles, rays, ends):
        radii = np.arange(0.0, end + 0.5 * dr, dr)
        q = np.clip(husimi(rho_qmr, origin + radii * step), 0.0, None)
        raw = float(q.sum() * dr)
        if raw <= 0.0:
            raise InvalidStateError("Husimi profile vanishes along the ray")
        profiles.append(RadialProfile(phi=phi, radii=radii, values=q / raw, dr=dr))
    return tuple(profiles)


def profile_contribution(profile: RadialProfile) -> tuple[float, float]:
    """(rearrangement gap, entropy) for one normalized profile.

    The gap is sum_r r (q - q_sorted_desc) dr, which the rearrangement
    inequality makes non-negative, and exactly zero when the profile is
    already non-increasing.
    """
    s = profile.entropy()
    if s <= 0.0:
        raise EntropyDegenerateError(
            f"profile entropy {s:.3e} <= 0 at phi={profile.phi:.3f}; decrease dr"
        )
    rearranged = np.sort(profile.values)[::-1]
    gap = float(((profile.values - rearranged) * profile.radii).sum() * profile.dr)
    return gap, s


@dataclass(frozen=True)
class TorotropyResult:
    value: float
    anchor: complex
    barycenter: complex
    per_angle: tuple[tuple[float, float, float], ...]  # (phi, contribution, entropy)
    profiles: tuple[RadialProfile, ...]  # the normalized profile of each angle, in that order
    rho: np.ndarray  # the reduced resonator matrix the profiles sample (reduce_resonator)


def default_angles(lam: float) -> tuple[float, ...]:
    if lam <= 1.0:
        return DEFAULT_ANGLES
    return tuple(2.0 * math.pi * k / WIDE_ANGLE_COUNT for k in range(WIDE_ANGLE_COUNT))


def torotropy(state_lab: BlockDensityMatrix, lam: float, *, dr: float = 0.02) -> TorotropyResult:
    """Self-oscillation measure of the lab-frame resonator state.

    The ray fan is anchored at -lam * <n>, the leading-order stationary
    displacement of the occupied dot; the exact barycenter tr(rho b) is
    evaluated alongside and reported for comparison.
    """
    rho, _ = reduce_resonator(state_lab)
    anchor = complex(-lam * state_lab.occupation)
    profiles = _fan(rho, anchor, default_angles(lam), dr)
    per_angle = []
    for prof in profiles:
        gap, s = profile_contribution(prof)
        per_angle.append((float(prof.phi), gap / s, s))
    value = min(c for _, c, _ in per_angle)
    return TorotropyResult(
        value=value,
        anchor=anchor,
        barycenter=barycenter(rho),
        per_angle=tuple(per_angle),
        profiles=profiles,
        rho=rho,
    )


def ergotropy(rho_qmr: np.ndarray, omega: float) -> float:
    """Maximum work extractable by a unitary, for the oscillator Hamiltonian.

    Energy of the state minus the energy of its passive counterpart
    (populations sorted descending against ascending Fock energies).
    """
    n = rho_qmr.shape[0]
    energy = omega * float(np.sum(np.arange(n) * np.diagonal(rho_qmr).real))
    pops = np.linalg.eigvalsh(rho_qmr)[::-1]
    passive = omega * float(np.sum(np.arange(n) * pops))
    return max(0.0, energy - passive)
