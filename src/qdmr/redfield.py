"""Master-equation kernel for the dot-resonator system in the polaron frame.

The state splits into two Fock-space blocks, rho0 (dot empty) and rho1
(dot occupied); coherences between the two charge sectors decouple from
the dynamics and are not represented.  Each lead contributes four
transition tensors; they are never materialized at rank 4 in the
production path.  Instead the factor matrices below are contracted into
N^2 x N^2 superoperator blocks:

    W_in[a, b]  = sum_i rate_in(eps[a, i]) D[i, a] D[i, b]
    W_out[a, b] = sum_i rate_out(eps[i, a]) D[a, i] D[b, i]
    V_in[j, k]  = D[j, k] rate_in(eps[k, j])
    V_out[j, k] = D[k, j] rate_out(eps[j, k])

with eps[k, l] = mu_tilde - omega*(k - l) and D the displacement
matrix.  The block actions are

    loss on rho0:  (W_in^T rho0 + rho0 W_in) / 2
    gain into rho1: (V_in rho0 D^T + D rho0 V_in^T) / 2
    loss on rho1:  (W_out^T rho1 + rho1 W_out) / 2
    gain into rho0: (V_out rho1 D + D^T rho1 V_out^T) / 2

plus the coherent part -i*omega*(j - m) on each block's element (j, m).
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .leads import rate_in, rate_out
from .model import LeadParams, ModelConfig
from .phonon import displacement_matrix


class SteadyStateError(RuntimeError):
    """Steady-state solve failed to meet the residual gate."""


class DegenerateSteadyStateError(SteadyStateError):
    """The stationary state is not unique (null space dimension > 1)."""


class FrameError(ValueError):
    """Operation applied to a state in the wrong frame."""


@dataclass(frozen=True)
class BlockDensityMatrix:
    """Two-block density matrix (rho0: dot empty, rho1: dot occupied).

    ``frame`` is 'polaron' or 'lab'; quantities that depend on the
    physical phonon basis must only be evaluated in the lab frame.
    """

    rho0: np.ndarray
    rho1: np.ndarray
    frame: str

    @property
    def n_cut(self) -> int:
        return self.rho0.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho0).real + np.trace(self.rho1).real)

    @property
    def occupation(self) -> float:
        """Dot occupation <n> = tr(rho1), frame independent."""
        return float(np.trace(self.rho1).real)

    @property
    def fock_tail(self) -> float:
        """Population in the top tenth of the Fock cutoff (at least one level)."""
        n = self.n_cut
        top = max(1, math.ceil(0.1 * n))
        diag = np.diagonal(self.rho0).real + np.diagonal(self.rho1).real
        return float(diag[n - top :].sum())


@dataclass(frozen=True)
class RedfieldTensors:
    """Per-lead transition tensors in factored form.

    ``dense()`` materializes the four rank-4 tensors (index order
    [j, m, k, l]); intended for small truncations and testing only.
    """

    label: str
    n_cut: int
    displacement: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    v_in: np.ndarray
    v_out: np.ndarray

    def dense(self) -> dict[str, np.ndarray]:
        eye = np.eye(self.n_cut)
        d = self.displacement
        r00 = 0.5 * (np.einsum("kj,ml->jmkl", self.w_in, eye) + np.einsum("lm,kj->jmkl", self.w_in, eye))
        r01 = 0.5 * (np.einsum("jk,ml->jmkl", self.v_in, d) + np.einsum("jk,ml->jmkl", d, self.v_in))
        r11 = 0.5 * (np.einsum("kj,ml->jmkl", self.w_out, eye) + np.einsum("lm,kj->jmkl", self.w_out, eye))
        r10 = 0.5 * (np.einsum("jk,lm->jmkl", self.v_out, d) + np.einsum("kj,ml->jmkl", d, self.v_out))
        return {"r00": r00, "r01": r01, "r11": r11, "r10": r10}

    # --- contractions used by the observable layer ---

    def current_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(M_in, M_out) with M_in[k,l] = sum_j R01[j,j,k,l] and likewise for R10.

        By construction these equal the diagonal sums of the loss
        tensors as well, which is what makes the equation trace
        preserving.
        """
        m_in = 0.5 * (self.w_in + self.w_in.T)
        m_out = 0.5 * (self.w_out + self.w_out.T)
        return m_in, m_out

    def fock_weighted_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q_in, Q_out): Fock-index-weighted diagonal tensor differences.

        Q_in[k,l]  = sum_j j * (R01 - R00)[j,j,k,l]
        Q_out[k,l] = sum_j j * (R11 - R10)[j,j,k,l]

        Both vanish identically at lam = 0.
        """
        n = self.n_cut
        idx = np.arange(n, dtype=float)
        jw = np.diag(idx)
        d = self.displacement
        s01 = self.v_in.T @ jw @ d
        s01 = 0.5 * (s01 + s01.T)
        s00 = 0.5 * (self.w_in * idx[None, :] + self.w_in.T * idx[:, None])
        s10 = self.v_out.T @ jw @ d.T
        s10 = 0.5 * (s10 + s10.T)
        s11 = 0.5 * (self.w_out * idx[None, :] + self.w_out.T * idx[:, None])
        return s01 - s00, s11 - s10


def build_tensors(config: ModelConfig, lead: LeadParams) -> RedfieldTensors:
    """Evaluate the factored transition tensors for one lead."""
    n = config.system.n_cut
    omega = config.system.omega
    idx = np.arange(n)
    eps = config.system.mu_tilde - omega * (idx[:, None] - idx[None, :])
    d = displacement_matrix(config.system.lam, n)
    r_in = rate_in(eps, lead)
    r_out = rate_out(eps, lead)
    w_in = np.einsum("ai,ia,ib->ab", r_in, d, d)
    w_out = np.einsum("ia,ai,bi->ab", r_out, d, d)
    v_in = d * r_in.T
    v_out = d.T * r_out
    return RedfieldTensors(
        label=lead.label, n_cut=n, displacement=d,
        w_in=w_in, w_out=w_out, v_in=v_in, v_out=v_out,
    )


@dataclass(frozen=True)
class Liouvillian:
    """Dense generator acting on the stacked vector [vec(rho0); vec(rho1)].

    Row-major vectorization: element (j, m) of a block sits at j*N + m.
    ``decoupled`` is set from the coupling (lam == 0): the displacement is
    then the identity, every Fock population is stationary and the
    kernel has dimension N.
    """

    matrix: np.ndarray
    n_cut: int
    omega: float
    decoupled: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace_vector(self) -> np.ndarray:
        """Left functional whose pairing with the state is tr(rho0) + tr(rho1)."""
        n = self.n_cut
        t_block = np.eye(n).reshape(-1)
        return np.concatenate([t_block, t_block]).astype(complex)

    def apply(self, rho0: np.ndarray, rho1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Time derivative of the two blocks under the generator."""
        n = self.n_cut
        x = np.concatenate([rho0.reshape(-1), rho1.reshape(-1)])
        y = self.matrix @ x
        return y[: n * n].reshape(n, n), y[n * n :].reshape(n, n)


def assemble_liouvillian(
    config: ModelConfig, tensors: tuple[RedfieldTensors, ...]
) -> Liouvillian:
    """Stack coherent evolution and all leads' tensors into one dense matrix."""
    n = config.system.n_cut
    omega = config.system.omega
    eye = np.eye(n)
    nn = n * n

    loss0 = np.zeros((nn, nn))
    loss1 = np.zeros((nn, nn))
    gain0 = np.zeros((nn, nn))
    gain1 = np.zeros((nn, nn))
    for t in tensors:
        d = t.displacement
        loss0 += 0.5 * (np.kron(t.w_in.T, eye) + np.kron(eye, t.w_in.T))
        loss1 += 0.5 * (np.kron(t.w_out.T, eye) + np.kron(eye, t.w_out.T))
        gain0 += 0.5 * (np.kron(t.v_out, d.T) + np.kron(d.T, t.v_out))
        gain1 += 0.5 * (np.kron(t.v_in, d) + np.kron(d, t.v_in))

    jm = np.arange(n)
    coherent = (-1j * omega * (jm[:, None] - jm[None, :])).reshape(-1)

    mat = np.zeros((2 * nn, 2 * nn), dtype=complex)
    mat[:nn, :nn] = -loss0
    mat[:nn, nn:] = gain0
    mat[nn:, :nn] = gain1
    mat[nn:, nn:] = -loss1
    di = np.arange(nn)
    mat[di, di] += coherent
    mat[nn + di, nn + di] += coherent
    return Liouvillian(matrix=mat, n_cut=n, omega=omega, decoupled=config.system.lam == 0.0)


@dataclass(frozen=True)
class SteadyStateInfo:
    residual: float
    rel_residual: float
    norm_row: int
    method: str
    degenerate: bool
    min_eig: tuple[float, float]


def _least_dominant_row(mat: np.ndarray, rows: np.ndarray) -> int:
    dominance = 2.0 * np.abs(mat[rows, rows]) - np.abs(mat[rows]).sum(axis=1)
    return int(rows[np.argmin(dominance)])


def steady_state(
    liou: Liouvillian,
    *,
    norm_row: int | None = None,
    allow_degenerate: bool = False,
    rel_tol: float = 1e-8,
) -> tuple[BlockDensityMatrix, SteadyStateInfo]:
    """Unique trace-one kernel vector of the generator.

    Replaces one population row of the generator (the least diagonally
    dominant one unless ``norm_row`` overrides it) with the trace
    functional and solves the bordered system, which is nonsingular
    whenever the kernel is one-dimensional.  A decoupled generator has an
    N-dimensional kernel: that raises unless ``allow_degenerate``, which
    returns the representative with flat Fock populations, rho0 = (1-p1) I/N
    and rho1 = p1 I/N, where p1 = gamma_in / (gamma_in + gamma_out) and the
    two total dot rates are read off the generator diagonal.
    """
    mat = liou.matrix
    dim = liou.dim
    n = liou.n_cut
    nn = n * n
    t = liou.trace_vector
    norm_l = float(np.abs(mat).sum(axis=1).max())
    gate = rel_tol * norm_l
    row = _least_dominant_row(mat, np.flatnonzero(t)) if norm_row is None else int(norm_row)
    if t[row] == 0:
        raise ValueError(f"norm_row {row} is not a population row")

    if liou.decoupled:
        if not allow_degenerate:
            raise DegenerateSteadyStateError(
                "stationary state is not unique; pass allow_degenerate=True "
                "to accept one representative (dot-sector observables remain valid)"
            )
        gamma_in, gamma_out = -mat[0, 0].real, -mat[nn, nn].real
        p1 = gamma_in / (gamma_in + gamma_out)
        flat = np.eye(n, dtype=complex).reshape(-1) / n
        x = np.concatenate([(1.0 - p1) * flat, p1 * flat])
        method = "decoupled"
    else:
        bordered = mat.copy()
        bordered[row, :] = t
        rhs = np.zeros(dim, dtype=complex)
        rhs[row] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a singular pivot fails the residual gate below
            lu = scipy.linalg.lu_factor(bordered)
            x = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
            # iterative refinement: pushes the kernel residual to
            # rounding level so conservation identities hold tightly
            for _ in range(2):
                x = x + scipy.linalg.lu_solve(lu, rhs - bordered @ x, check_finite=False)
        method = "lu"

    rho0 = x[:nn].reshape(n, n)
    rho1 = x[nn:].reshape(n, n)
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    rho1 = 0.5 * (rho1 + rho1.conj().T)
    tr = float(np.trace(rho0).real + np.trace(rho1).real)
    rho0 = rho0 / tr
    rho1 = rho1 / tr

    final = np.concatenate([rho0.reshape(-1), rho1.reshape(-1)])
    residual = float(np.abs(mat @ final).max())
    if not residual <= gate:
        raise SteadyStateError(f"steady-state residual {residual:.3e} exceeds gate {gate:.3e}")
    min_eig = (
        float(np.linalg.eigvalsh(rho0)[0]),
        float(np.linalg.eigvalsh(rho1)[0]),
    )
    info = SteadyStateInfo(
        residual=residual,
        rel_residual=residual / norm_l if norm_l > 0 else residual,
        norm_row=row,
        method=method,
        degenerate=liou.decoupled,
        min_eig=min_eig,
    )
    return BlockDensityMatrix(rho0=rho0, rho1=rho1, frame="polaron"), info


def to_lab_frame(state: BlockDensityMatrix, displacement: np.ndarray) -> BlockDensityMatrix:
    """Undo the polaron transformation: rho1 -> D^T rho1 D, rho0 unchanged."""
    if state.frame != "polaron":
        raise FrameError(f"expected a polaron-frame state, got {state.frame!r}")
    return BlockDensityMatrix(
        rho0=state.rho0.copy(),
        rho1=displacement.T @ state.rho1 @ displacement,
        frame="lab",
    )


@dataclass(frozen=True)
class Solution:
    """One solved operating point; ``lab`` is None when the state is degenerate."""

    tensors: tuple[RedfieldTensors, RedfieldTensors]  # (L, R)
    polaron: BlockDensityMatrix
    lab: BlockDensityMatrix | None
    info: SteadyStateInfo


def solve(config: ModelConfig, *, allow_degenerate: bool = False) -> Solution:
    """Tensors, generator, stationary state and lab frame of one operating point."""
    tensors = (build_tensors(config, config.lead_L), build_tensors(config, config.lead_R))
    liou = assemble_liouvillian(config, tensors)
    state, info = steady_state(liou, allow_degenerate=allow_degenerate)
    lab = None if info.degenerate else to_lab_frame(state, tensors[0].displacement)
    return Solution(tensors=tensors, polaron=state, lab=lab, info=info)


_MAGIC = b"QDMRNES1"
_FRAME_TAGS = {"polaron": 0, "lab": 1}
_FRAME_NAMES = {v: k for k, v in _FRAME_TAGS.items()}


def save_state(path: str | Path, state: BlockDensityMatrix, config_hash: bytes) -> None:
    """Binary dump: 32-byte header (magic, N, frame, config hash), then both blocks."""
    if len(config_hash) != 16:
        raise ValueError("config_hash must be 16 bytes")
    header = struct.pack("<8sII16s", _MAGIC, state.n_cut, _FRAME_TAGS[state.frame], config_hash)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.rho0, dtype="<c16").tobytes())
        fh.write(np.ascontiguousarray(state.rho1, dtype="<c16").tobytes())


def load_state(path: str | Path) -> tuple[BlockDensityMatrix, bytes]:
    with open(path, "rb") as fh:
        magic, n, tag, config_hash = struct.unpack("<8sII16s", fh.read(32))
        if magic != _MAGIC:
            raise ValueError("not a block-state dump")
        block = n * n * 16
        rho0 = np.frombuffer(fh.read(block), dtype="<c16").reshape(n, n).astype(complex)
        rho1 = np.frombuffer(fh.read(block), dtype="<c16").reshape(n, n).astype(complex)
    return BlockDensityMatrix(rho0=rho0, rho1=rho1, frame=_FRAME_NAMES[tag]), config_hash
