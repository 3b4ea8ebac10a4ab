"""Master-equation kernel for the dot-resonator system in the polaron frame.

The state splits into two Fock-space blocks, rho0 (dot empty) and rho1
(dot occupied); coherences between the two charge sectors decouple from
the dynamics and are not represented.  Each lead contributes four
transition tensors, kept as the factor matrices below; they are never
materialized at rank 4, nor as N^2 x N^2 superoperator blocks:

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
The factors are real and the blocks Hermitian, so the matrix-free action
``_act`` works on the real coordinates M = Re X + Im X of each block X.

There are two stationary solves, with one contract: each takes
``(config, tensors)``, solves one bordered system (``_bordered_system``:
the same border row, the same gate and the same residual action, all from
the lead-summed factors) and hands its raw solution to one finish
(Hermitian part, trace one, the residual and positivity gates).  They
differ only in how they solve the bordered system.  ``krylov_steady_state``, the one
``sweep.evaluate_point`` reports, applies the block actions above with the
factors summed over the leads (12 real N x N matrix products, O(N^3) time
and O(N^2) memory) and solves by preconditioned GMRES in float64.  ``steady_state`` builds
the generator's rows from the leads' factors and factorises them by LU,
O(N^6) time and one dense copy; it reports where GMRES fails its gates
(0 < lam <~ 1e-7) and confirms the rung that the adaptive ladder accepts.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .leads import rate_in, rate_out
from .model import ModelConfig
from .phonon import displacement_matrix


MIN_EIG_FLOOR = -1e-8  # smallest block eigenvalue a stationary state may have
RESIDUAL_RTOL = 1e-8  # largest max|L x| of a stationary state x, relative to the infinity norm of L
GMRES_RTOL = 1e-12  # relative residual at which each GMRES pass of ``krylov_steady_state`` stops
# residual norm below which its refinement pass stops, against a unit right-hand side: the update
# x + dx holds no more; at the six seed-1 ``adaptive-eq`` points, N = 20, the state agrees with
# the LU's to 5.0e-16 (5.55e-16 with no floor; 4.94e-15 at 5e-17), and at the self-oscillation
# point, N = 40, the pass takes 7 iterations instead of 16
GMRES_FLOOR = 1e-17
# iterations after which a pass gives up; a pass took 1 to 17 at the points measured, N = 20 to 80;
# the basis holds GMRES_MAX_ITER + 1 real vectors of 2 N^2
GMRES_MAX_ITER = 100


class SteadyStateError(RuntimeError):
    """Steady-state solve failed to meet the residual or positivity gate."""


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
    """Per-lead transition tensors in factored form; ``build_tensors`` gives
    both leads' tensors the same displacement matrix object."""

    displacement: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    v_in: np.ndarray
    v_out: np.ndarray

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
        idx = np.arange(self.w_in.shape[0], dtype=float)
        jw = np.diag(idx)
        d = self.displacement
        s01 = self.v_in.T @ jw @ d
        s01 = 0.5 * (s01 + s01.T)
        s00 = 0.5 * (self.w_in * idx[None, :] + self.w_in.T * idx[:, None])
        s10 = self.v_out.T @ jw @ d.T
        s10 = 0.5 * (s10 + s10.T)
        s11 = 0.5 * (self.w_out * idx[None, :] + self.w_out.T * idx[:, None])
        return s01 - s00, s11 - s10


def build_tensors(config: ModelConfig) -> tuple[RedfieldTensors, RedfieldTensors]:
    """The factored transition tensors of both leads, (L, R), on one level grid
    and one displacement matrix."""
    n = config.system.n_cut
    idx = np.arange(n)
    eps = config.system.mu_tilde - config.system.omega * (idx[:, None] - idx[None, :])
    d = displacement_matrix(config.system.lam, n)
    tensors = []
    for lead in config.leads:
        r_in = rate_in(eps, lead)
        r_out = rate_out(eps, lead)
        w_in = np.einsum("ai,ia,ib->ab", r_in, d, d)
        w_out = np.einsum("ia,ai,bi->ab", r_out, d, d)
        tensors.append(RedfieldTensors(displacement=d, w_in=w_in, w_out=w_out, v_in=d * r_in.T, v_out=d.T * r_out))
    return tensors[0], tensors[1]


class Liouvillian(NamedTuple):
    """Generator on the stacked vector [vec(rho0); vec(rho1)]: references to
    the leads' tensors and O(N^2) of its own.  Row-major vectorization:
    element (j, m) of a block sits at j*N + m.  The dense 2N^2 x 2N^2
    matrix is never stored; ``_row_blocks`` builds it N rows at a time."""

    tensors: tuple[RedfieldTensors, ...]  # sharing one displacement matrix D
    coherent: np.ndarray  # -i omega (j - m) at [j, m]
    n_cut: int

    @property
    def trace_vector(self) -> np.ndarray:
        """Left functional whose pairing with the state is tr(rho0) + tr(rho1)."""
        n = self.n_cut
        t_block = np.eye(n).reshape(-1)
        return np.concatenate([t_block, t_block]).astype(complex)


def _coherent(config: ModelConfig) -> np.ndarray:
    """The coherent part -i omega (j - m) of each block's element (j, m)."""
    jm = np.arange(config.system.n_cut)
    return -1j * config.system.omega * (jm[:, None] - jm[None, :])


def assemble_liouvillian(config: ModelConfig, tensors: tuple[RedfieldTensors, ...]) -> Liouvillian:
    """Generator of coherent evolution and all leads' tensors, which must
    share D, as those of ``build_tensors`` do."""
    return Liouvillian(tuple(tensors), _coherent(config), config.system.n_cut)


def _row_blocks(liou: Liouvillian) -> Iterator[tuple[int, np.ndarray]]:
    """All 2N^2 generator rows as (start, rows), one run per block and Fock
    index j: the N rows (j, m), m < N, at start = half*N^2 + j*N, for rho0
    (half 0) and then rho1 (half 1), built from the leads' tensors.

    A gain block sums (kron(a, b) + kron(b, a)) / 2 over the leads, with the
    lead's a (v_out into rho0, v_in into rho1) and the shared b (D^T, D):
    row (j, m) is repeat(a[j], N) * tile(b)[m] + repeat(b[j], N) * tile(a)[m],
    with tile(x)[m] = np.tile(x[m], N), and a pass tiles each half's factors
    once.  A loss block, -sum (kron(A, I) + kron(I, A)) / 2 over the leads'
    A = w_in^T or w_out^T, can be nonzero on row (j, m) only at the columns
    (a, m) and (j, b); elsewhere every lead adds a signed zero to an
    accumulator that starts at +0.0, which the negation makes -0.0.

    ``ModelConfig`` requires N >= 2, so every run has at least two rows; a
    one-row product rounds differently from the same row inside a matrix
    product.  Each run is written into one buffer, valid until the next is
    drawn, and is bit for bit the matrix of the Kronecker assembly: the
    same products summed in the same order, the coherent diagonal added last.
    """
    n = liou.n_cut
    nn = n * n
    dim = 2 * nn
    eye = np.eye(n)
    d = liou.tensors[0].displacement
    rows = np.empty((n, dim), dtype=complex)
    flat = rows.reshape(-1)
    halves = (
        ([t.w_in.T for t in liou.tensors], [t.v_out for t in liou.tensors], d.T),
        ([t.w_out.T for t in liou.tensors], [t.v_in for t in liou.tensors], d),
    )
    for half, (loss, gain_a, b) in enumerate(halves):
        own = rows[:, half * nn : (half + 1) * nn]
        gain = rows[:, (1 - half) * nn : (2 - half) * nn]
        own3 = own.real.reshape(n, n, n)  # [m, column's first index, column's second index]
        at_a_m = np.einsum("mam->ma", own3)  # the columns (a, m) of row (j, m)
        tile_a = [np.tile(a, n) for a in gain_a]
        tile_b = np.tile(b, n)
        for j in range(n):
            start = half * nn + j * n
            along_a = along_b = acc = 0.0  # the assembly's start; then each lead's term, in lead order
            for w in loss:  # the products with I[m, m] = 1 and I[j, j] = 1 are w itself
                w_d = np.diagonal(w)
                along_a = along_a + 0.5 * (w[j] + eye[j] * w_d[:, None])  # [m, a]
                along_b = along_b + 0.5 * (w_d[j] * eye + w)  # [m, b]
            own[:] = -0.0
            at_a_m[...] = -along_a
            own3[:, j] = -along_b  # the columns (j, b)
            flat[start :: dim + 1] += liou.coherent[j]
            b_j = b[j].repeat(n)
            for a, tile in zip(gain_a, tile_a):
                term = a[j].repeat(n) * tile_b
                term += b_j * tile
                term *= 0.5
                acc = acc + term
            gain[...] = acc
            yield start, rows


def _apply(liou: Liouvillian, x: np.ndarray, border: int) -> np.ndarray:
    """The bordered generator times ``x``, one run of rows at a time: row
    ``border`` is replaced with the trace functional for this product."""
    y = np.empty_like(x)
    for start, block in _row_blocks(liou):
        stop = start + len(block)
        if start <= border < stop:
            block[border - start] = liou.trace_vector
        y[start:stop] = block @ x
    return y


@dataclass(frozen=True)
class SteadyStateInfo:
    residual: float
    norm_row: int
    method: str  # "lu" (``steady_state``), "gmres" (``krylov_steady_state``), or its closed-form lam = 0 state "decoupled"
    min_eig: tuple[float, float]


def steady_state(config: ModelConfig, tensors: tuple[RedfieldTensors, ...]) -> tuple[BlockDensityMatrix, SteadyStateInfo]:
    """Trace-one kernel vector of the generator, by a bordered LU on its rows.

    The rows come from the leads' tensors (``_row_blocks``); the border row,
    the gate and the residual action are those of ``krylov_steady_state``
    (``_bordered_system``).  One pass over the rows fills a Fortran-order
    buffer that LAPACK factorises in place, so the solve holds one dense
    copy of the generator and O(N^3) per pass; the two refinement products
    build the rows again.  ``_finish`` ends it.  A decoupled generator (lam == 0) is refused.
    """
    import scipy.linalg  # here only, so that a point that GMRES solves loads no SciPy

    if config.system.lam == 0.0:
        raise ValueError("a decoupled generator (lam = 0) has no unique stationary state; use krylov_steady_state")
    system = _bordered_system(config, tensors)
    liou = assemble_liouvillian(config, tensors)
    dim = 2 * liou.n_cut**2
    buf = np.empty((dim, dim), dtype=complex, order="F")
    for start, block in _row_blocks(liou):
        buf[start : start + len(block)] = block
    del block  # the pass's row buffer, before a later pass builds its own

    rhs = np.zeros(dim, dtype=complex)
    rhs[system.row] = 1.0
    buf[system.row] = liou.trace_vector
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a singular pivot fails the residual gate of ``_finish``
        lu = scipy.linalg.lu_factor(buf, overwrite_a=True, check_finite=False)
        x = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
        # iterative refinement: pushes the kernel residual to
        # rounding level so conservation identities hold tightly
        for _ in range(2):
            x = x + scipy.linalg.lu_solve(lu, rhs - _apply(liou, x, system.row), check_finite=False)
    return _finish(x, system, "lu")


def _finish(x: np.ndarray, system: _BorderedSystem, method: str) -> tuple[BlockDensityMatrix, SteadyStateInfo]:
    """The reported state from a solve's raw kernel vector ``x``: Hermitian
    blocks, scaled to trace one, then two gates.  A complex ``x`` (the LU's)
    gives each block's Hermitian part; a real one holds the coordinates M of
    ``_act``, mapped back by X = (M + M^T)/2 + i(M - M^T)/2.  The residual
    max|_act(state)|, on M = Re X + Im X, must not exceed ``system.gate``.  A
    state whose smallest block eigenvalue lies below ``MIN_EIG_FLOOR`` raises
    too: a numerically degenerate generator (0 < lam <= 1e-8) passes the
    residual gate with a state far from positive.  A raw vector that is not
    finite raises before any arithmetic.
    """
    if not np.isfinite(x).all():
        raise SteadyStateError(f"the {method} solve's raw vector is not finite")
    n = system.f.d.shape[0]
    nn = n * n
    rho0 = x[:nn].reshape(n, n)
    rho1 = x[nn:].reshape(n, n)
    if np.iscomplexobj(x):
        rho0 = 0.5 * (rho0 + rho0.conj().T)
        rho1 = 0.5 * (rho1 + rho1.conj().T)
    else:
        rho0 = 0.5 * (rho0 + rho0.T) + 0.5j * (rho0 - rho0.T)
        rho1 = 0.5 * (rho1 + rho1.T) + 0.5j * (rho1 - rho1.T)
    tr = float(np.trace(rho0).real + np.trace(rho1).real)
    rho0 = rho0 / tr
    rho1 = rho1 / tr

    coords = np.concatenate([(rho0.real + rho0.imag).reshape(-1), (rho1.real + rho1.imag).reshape(-1)])
    residual = float(np.abs(_act(system.f, coords)).max())
    if not residual <= system.gate:
        raise SteadyStateError(f"steady-state residual {residual:.3e} exceeds gate {system.gate:.3e}")
    min_eig = (float(np.linalg.eigvalsh(rho0)[0]), float(np.linalg.eigvalsh(rho1)[0]))
    if not min(min_eig) >= MIN_EIG_FLOOR:
        raise SteadyStateError(
            f"stationary state is not positive: smallest block eigenvalue "
            f"{min(min_eig):.3e} is below {MIN_EIG_FLOOR:.0e}"
        )
    info = SteadyStateInfo(residual=residual, norm_row=system.row, method=method, min_eig=min_eig)
    return BlockDensityMatrix(rho0=rho0, rho1=rho1, frame="polaron"), info


class _SummedFactors(NamedTuple):
    """The generator's factors summed over the leads, the shared D and the
    coherent part: all that its matrix-free action needs."""

    w_in: np.ndarray
    w_out: np.ndarray
    v_in: np.ndarray
    v_out: np.ndarray
    d: np.ndarray
    coherent: np.ndarray  # -i omega (j - m) at [j, m]


def _act(f: _SummedFactors, x: np.ndarray) -> np.ndarray:
    """Generator times the stacked real coordinates ``x``: 12 real N x N products.

    A Hermitian block X = S + iA (S symmetric, A antisymmetric) has the
    coordinates M = S + A = Re X + Im X, an isometry with the inverse
    X = (M + M^T)/2 + i(M - M^T)/2.  The factors are real, so each of their
    products acts on M as on X, and the coherent part i*K∘X becomes K∘M^T.
    """
    n = f.d.shape[0]
    m0 = x[: n * n].reshape(n, n)
    m1 = x[n * n :].reshape(n, n)
    k = f.coherent.imag
    y0 = k * m0.T - 0.5 * (f.w_in.T @ m0 + m0 @ f.w_in) + 0.5 * (f.v_out @ m1 @ f.d + f.d.T @ m1 @ f.v_out.T)
    y1 = k * m1.T - 0.5 * (f.w_out.T @ m1 + m1 @ f.w_out) + 0.5 * (f.v_in @ m0 @ f.d.T + f.d @ m0 @ f.v_in.T)
    return np.concatenate([y0.reshape(-1), y1.reshape(-1)])


def _gain_row_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row sums of |(kron(a, b) + kron(b, a)) / 2| on the rows (j, j), the
    populations of the block that this gain feeds.  The sum and its absolute
    value share one N^3 array, so at most two are live (128 MB at N = 200)."""
    s = a[:, :, None] * b[:, None, :]
    s += a[:, None, :] * b[:, :, None]
    return 0.5 * np.abs(s, out=s).sum(axis=(1, 2))


class _BorderedSystem(NamedTuple):
    """What both stationary solves share; see ``_bordered_system``."""

    f: _SummedFactors  # whose action ``_act`` measures every residual
    pop: np.ndarray  # the 2N population rows, rho0's then rho1's
    border: int  # the index in ``pop`` of the row bordered with the trace
    diag: np.ndarray  # the generator diagonal
    gate: float  # largest max|L x| of a stationary state x

    @property
    def row(self) -> int:
        return int(self.pop[self.border])


def _bordered_system(config: ModelConfig, tensors: tuple[RedfieldTensors, ...]) -> _BorderedSystem:
    """The border row and the residual gate of both solves, from the factors.

    The least diagonally dominant population row (smallest 2|L_ii| -
    sum_k |L_ik|, its row sums read off the factors) is replaced with the
    trace functional, which makes the system nonsingular whenever the
    kernel is one-dimensional.  The gate is RESIDUAL_RTOL times the largest
    row sum of the coherent and loss terms: a lower bound on the infinity
    norm of the generator, so never looser than RESIDUAL_RTOL times that norm.
    """
    f = _SummedFactors(
        *(sum(getattr(t, name) for t in tensors) for name in ("w_in", "w_out", "v_in", "v_out")),
        d=tensors[0].displacement,
        coherent=_coherent(config),
    )
    n = config.system.n_cut
    pop = np.concatenate([np.arange(n) * (n + 1), n * n + np.arange(n) * (n + 1)])

    diag = []  # each block's generator diagonal
    loss_sums = []  # each block's row sums of |coherent + loss|, [j, m] for row (j, m)
    for w in (f.w_in, f.w_out):
        w_d = np.diagonal(w)
        off = 0.5 * (np.abs(w).sum(axis=0) - np.abs(w_d))  # along one index of a row, off the diagonal
        block = f.coherent - 0.5 * (w_d[:, None] + w_d[None, :])
        diag.append(block.reshape(-1))
        loss_sums.append(off[:, None] + off[None, :] + np.abs(block))
    diag = np.concatenate(diag)
    gain_sums = [_gain_row_sums(f.v_out, f.d.T), _gain_row_sums(f.v_in, f.d)]
    pop_sums = np.concatenate([np.diagonal(loss) + gain for loss, gain in zip(loss_sums, gain_sums)])
    border = int(np.argmin(2.0 * np.abs(diag[pop]) - pop_sums))
    gate = RESIDUAL_RTOL * max(float(loss.max()) for loss in loss_sums)
    return _BorderedSystem(f, pop, border, diag, gate)


def _gmres(matvec, precondition, rhs: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """x with |rhs - matvec(x)| <= max(GMRES_RTOL |rhs|, floor): unrestarted
    GMRES in float64, right preconditioned by ``precondition``.  Givens rotations
    track the residual norm; the triangular least-squares problem is solved
    once, at convergence.  Raises ``SteadyStateError`` at GMRES_MAX_ITER
    iterations or on an Arnoldi vector that is not finite."""
    beta = float(np.linalg.norm(rhs))
    if beta == 0.0:
        return np.zeros_like(rhs)
    basis = np.empty((GMRES_MAX_ITER + 1, rhs.size))
    hess = np.zeros((GMRES_MAX_ITER, GMRES_MAX_ITER))  # the Hessenberg matrix, rotated to upper triangular
    rotations = []  # (cos, sin) of each Givens rotation so far
    target = max(GMRES_RTOL * beta, floor)
    g = [beta]  # the rotated beta e1
    basis[0] = rhs / beta
    for k in range(1, GMRES_MAX_ITER + 1):
        w = matvec(precondition(basis[k - 1]))
        for _ in range(2):  # classical Gram-Schmidt, twice
            c = basis[:k] @ w
            w -= c @ basis[:k]
            hess[:k, k - 1] += c
        h = float(np.linalg.norm(w))
        if not math.isfinite(h):
            raise SteadyStateError(f"GMRES Arnoldi vector {k} is not finite")
        col = hess[:k, k - 1].tolist()
        for i, (cs, sn) in enumerate(rotations):
            col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
        r = math.hypot(col[-1], h)
        if r == 0.0:
            raise SteadyStateError(f"GMRES stagnated at iteration {k}: the Hessenberg column is singular")
        cs, sn = col[-1] / r, h / r
        rotations.append((cs, sn))
        col[-1] = r
        hess[:k, k - 1] = col
        g[-1], g_next = cs * g[-1], -sn * g[-1]
        if abs(g_next) <= target:
            y = np.linalg.solve(hess[:k, :k], g)
            return precondition(y @ basis[:k])
        g.append(g_next)
        basis[k] = w / h
    raise SteadyStateError(f"GMRES did not reach relative residual {GMRES_RTOL:.0e} in {GMRES_MAX_ITER} iterations")


def krylov_steady_state(
    config: ModelConfig, tensors: tuple[RedfieldTensors, ...]
) -> tuple[BlockDensityMatrix, SteadyStateInfo]:
    """Trace-one kernel vector of the generator, without its rows.

    The generator acts through its factors (``_act``: O(N^3) time, O(N^2)
    memory) on the real coordinates M = Re X + Im X of the Hermitian blocks
    X: the trace row and the right-hand side are real, so the whole solve
    stays in a real space of dimension 2 N^2, isometric to the Hermitian
    pairs.  The bordered system, with the same border row, the same gate
    and the same residual action as in ``steady_state`` (``_bordered_system``),
    is solved by GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 856
    (1986)) with Givens rotations to a relative residual of GMRES_RTOL, then
    once more on the residual left, to GMRES_RTOL of it or to GMRES_FLOOR,
    whichever is larger: below about 1e-17 the update no longer changes the
    sum x + dx.  The preconditioner is exact on the 2N
    populations, whose generator block is the Pauli rate matrix of
    sequential tunnelling (Koch & von Oppen, PRL 94, 206804 (2005)),
    bordered in the same row and inverted once (a singular block raises
    ``SteadyStateError``), and on every coherence the diagonal (Jacobi),
    inverted exactly on the 2 x 2 pair of coordinates (j, m) and (m, j) that
    the coherent part couples.  ``_finish`` ends it, as it ends ``steady_state``.

    A decoupled generator (lam == 0: D = I, every Fock population is
    stationary) has an N-dimensional kernel.  Unsolved, with method
    "decoupled", it returns the representative with flat Fock populations,
    rho0 = (1-p1) I/N and rho1 = p1 I/N, with the lead-summed total dot rates
    in p1 = W_in[0, 0] / (W_in[0, 0] + W_out[0, 0]).  Only its dot sector is defined.

    Where the generator is nearly degenerate (0 < lam <~ 1e-5), the state
    is ill-determined: this solve and the LU agree only to about
    1e-16 / lam^2 there.
    """
    system = _bordered_system(config, tensors)
    f, pop, row = system.f, system.pop, system.row
    n = config.system.n_cut

    if config.system.lam == 0.0:
        p1 = f.w_in[0, 0] / (f.w_in[0, 0] + f.w_out[0, 0])
        flat = np.eye(n).reshape(-1) / n
        x = np.concatenate([(1.0 - p1) * flat, p1 * flat])
        return _finish(x, system, "decoupled")

    pauli = np.block([
        [np.diag(-np.diagonal(f.w_in)), f.v_out * f.d.T],
        [f.v_in * f.d, np.diag(-np.diagonal(f.w_out))],
    ])
    pauli[system.border] = 1.0  # the trace over all populations
    try:
        pauli_inv = np.linalg.inv(pauli)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError("the bordered Pauli block is singular") from exc
    # the coherent part couples the coordinates (j, m) and (m, j) of a block, so
    # Jacobi inverts the diagonal d on each such pair: u = (Re d v + k v^T) / |d|^2
    d_re = system.diag.real.copy()
    d_re[pop] = 1.0  # overwritten by the population block
    k = -system.diag.imag  # omega (j - m)
    norm2 = d_re * d_re + k * k
    on_v = (d_re / norm2).reshape(2, n, n)
    on_vt = (k / norm2).reshape(2, n, n)

    def bordered(x: np.ndarray) -> np.ndarray:
        y = _act(f, x)
        y[row] = x[pop].sum()
        return y

    def precondition(v: np.ndarray) -> np.ndarray:
        b = v.reshape(2, n, n)
        u = (on_v * b + on_vt * b.transpose(0, 2, 1)).reshape(-1)
        u[pop] = pauli_inv @ v[pop]
        return u

    rhs = np.zeros(2 * n * n)
    rhs[row] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a non-finite vector fails ``_gmres`` or the gates of ``_finish``
        x = _gmres(bordered, precondition, rhs)
        x = x + _gmres(bordered, precondition, rhs - bordered(x), GMRES_FLOOR)
    return _finish(x, system, "gmres")


def to_lab_frame(state: BlockDensityMatrix, displacement: np.ndarray) -> BlockDensityMatrix:
    """Undo the polaron transformation: rho1 -> D^T rho1 D, rho0 unchanged."""
    if state.frame != "polaron":
        raise FrameError(f"expected a polaron-frame state, got {state.frame!r}")
    return BlockDensityMatrix(
        rho0=state.rho0.copy(),
        rho1=displacement.T @ state.rho1 @ displacement,
        frame="lab",
    )
