"""Single-point evaluation and parameter sweeps.

Sweep output is deterministic: rows are emitted in row-major axis order
with round-trip float formatting, metadata excludes anything
machine- or schedule-dependent, and every point is evaluated in a
spawned single-threaded worker process regardless of the worker count,
so the same sweep produces byte-identical files with 1 or 8 workers.
Completed points are journaled as JSON lines next to the output file;
an interrupted sweep picks up where it left off with ``resume=True``,
recomputing a point whose journal line a kill cut short.  A killed worker
breaks the pool: every point it did not return is written as an
``error:BrokenProcessPool`` row but not journaled, and the journal is
kept, so ``resume=True`` computes those points again.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__, observables, phasespace, redfield
from .configfile import OUTPUT_GROUPS, SweepSpec, config_to_dict
from .model import ModelConfig

ADAPTIVE_START = 20
ADAPTIVE_STEP = 10
ADAPTIVE_CAP = 80
ADAPTIVE_TAIL_TOL = 1e-6
ADAPTIVE_DRIFT_TOL = 0.01
_BLAS_THREADS = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")

_BASE_COLUMNS = ("status", "n_cut", "residual", "min_eig")
# output group -> {column: attribute path on PointResult}; a None on the
# path gives nan, or "" for the text column "mode"
_GROUP_COLUMNS = {
    "transport": {"current_L": "report.current_l", "current_R": "report.current_r"},
    "thermo": {
        "occupation": "report.occupation", "phonon_number": "report.phonon_number",
        "heat_el_L": "report.heat_el_l", "heat_el_R": "report.heat_el_r",
        "heat_mec_L": "report.heat_mec_l", "heat_mec_R": "report.heat_mec_r",
        "heat_tot_L": "report.heat_total_l", "heat_tot_R": "report.heat_total_r",
        "power": "report.power", "zeta": "report.zeta",
        "first_law_residual": "report.first_law_residual",
    },
    "phasespace": {
        "torotropy": "torotropy.value", "ergotropy": "ergotropy",
        "alpha_c_re": "torotropy.barycenter.real", "alpha_c_im": "torotropy.barycenter.imag",
        "barycenter_gap": "barycenter_gap",
    },
    "mode": {
        "mode": "report.mode",
        "eta_converter": "report.eta_converter", "eta_heater": "report.eta_heater",
    },
}


@dataclass
class PointResult:
    """Everything computed at one operating point, plus solve diagnostics."""

    status: str
    n_cut: int
    residual: float
    min_eig: float
    method: str | None = None  # the solve's ``SteadyStateInfo.method``; None on an error row
    report: observables.ThermoReport | None = None
    torotropy: phasespace.TorotropyResult | None = None
    ergotropy: float | None = None
    polaron_state: redfield.BlockDensityMatrix | None = None
    lab_state: redfield.BlockDensityMatrix | None = None

    @property
    def barycenter_gap(self) -> float | None:
        tq = self.torotropy
        return abs(tq.barycenter - tq.anchor) if tq else None

    def row(self, outputs: tuple[str, ...]) -> dict:
        row = {column: getattr(self, column) for column in _BASE_COLUMNS}
        for group, columns in _GROUP_COLUMNS.items():
            if group in outputs:
                for column, path in columns.items():
                    row[column] = self._cell(column, path)
        return row

    def _cell(self, column: str, path: str):
        value = self
        for name in path.split("."):
            if value is None:
                break
            value = getattr(value, name)
        if value is None:
            return "" if column == "mode" else float("nan")
        return value


def _default_solve(config: ModelConfig, tensors: tuple) -> tuple:
    """The matrix-free solve, or the LU where it fails its gates (0 < lam <~ 1e-7)."""
    try:
        return redfield.krylov_steady_state(config, tensors)
    except redfield.SteadyStateError:
        return redfield.steady_state(config, tensors)


def evaluate_point(
    config: ModelConfig, outputs: tuple[str, ...] = OUTPUT_GROUPS, *, solve=None
) -> PointResult:
    """Tensors, stationary state, lab frame, phase space (``phasespace`` group) and
    report at the config's own cutoff; raises on failure.  ``solve(config, tensors)``
    is the stationary solve: by default ``redfield.krylov_steady_state``, and
    ``redfield.steady_state`` where that raises ``SteadyStateError``, both looked
    up at each call.  ``run_point``, the validation suites and the phonon exports
    use it.  ``lab_state`` is None exactly when the generator is decoupled
    (lam = 0, method "decoupled"), whose phonon sector is not unique."""
    tensors = redfield.build_tensors(config)
    polaron, info = (solve or _default_solve)(config, tensors)
    lab = None if info.method == "decoupled" else redfield.to_lab_frame(polaron, tensors[0].displacement)

    tq_result = None
    ergo = None
    if "phasespace" in outputs and lab is not None:
        tq_result = phasespace.torotropy(lab, config.system.lam)
        ergo = phasespace.ergotropy(tq_result.rho, config.system.omega)

    report = observables.build_report(
        config, polaron, lab, *tensors,
        torotropy_value=tq_result.value if tq_result else None,
    )
    return PointResult(
        status="degenerate" if info.method == "decoupled" else "ok",
        n_cut=config.system.n_cut,
        residual=info.residual,
        min_eig=min(info.min_eig),
        method=info.method,
        report=report,
        torotropy=tq_result,
        ergotropy=ergo,
        polaron_state=polaron,
        lab_state=lab,
    )


def run_point(
    config: ModelConfig,
    outputs: tuple[str, ...] = OUTPUT_GROUPS,
    *,
    n_cut_policy: str = "fixed",
) -> PointResult:
    """``evaluate_point`` plus the cutoff ladder; exceptions become an
    error-status result (``error:<exception>``) at the cutoff that failed.

    With ``n_cut_policy='adaptive'`` the truncation is raised from 20 in
    steps of 10 until the top-decile Fock population falls below 1e-6
    and the torotropy (when requested) moves by less than 1% between
    consecutive sizes, capping at 80.  Each rung is decided once, on the
    default solve of ``evaluate_point``, the one a fixed cutoff reports.
    The accepted rung is reported by the LU, which solves it again unless it
    fell back to the LU already; a point that reaches the cap unsettled
    reports its default-solve state, with status ``n_cut_cap``.  The
    accepted rung keeps the LU because ``eta_converter`` at equilibrium
    reads 0.0 or nan from the last bits of a rounding-level ``I_R``, and
    the benchmark reference holds the LU's bits there.
    """
    n = config.system.n_cut  # the cutoff being solved, for an error row
    try:
        if n_cut_policy == "fixed" or config.system.lam == 0.0:
            return evaluate_point(config, outputs)
        below = None  # the rung below's result
        n = ADAPTIVE_START
        while True:
            cfg = replace(config, system=replace(config.system, n_cut=n))
            result = evaluate_point(cfg, outputs)
            if _settled(result, below):
                return result if result.method == "lu" else evaluate_point(cfg, outputs, solve=redfield.steady_state)
            if n >= ADAPTIVE_CAP:
                return replace(result, status="n_cut_cap")
            below = result
            n += ADAPTIVE_STEP
    except Exception as exc:  # recorded per point, never fatal to a sweep
        return _failed(n, exc)


def _settled(point: PointResult, below: PointResult | None) -> bool:
    """The ladder's stop rule on one rung's result, with ``below`` the rung
    below's: the lab-frame Fock tail is below ADAPTIVE_TAIL_TOL and a
    requested torotropy has settled, so then at least two rungs are solved."""
    if not point.lab_state.fock_tail < ADAPTIVE_TAIL_TOL:
        return False
    if point.torotropy is None:
        return True
    if below is None:
        return False
    a, b = below.torotropy.value, point.torotropy.value
    return abs(a - b) <= ADAPTIVE_DRIFT_TOL * max(abs(a), abs(b)) or max(abs(a), abs(b)) < 1e-9


def _failed(n_cut: int, exc: Exception) -> PointResult:
    nan = float("nan")
    return PointResult(status=f"error:{type(exc).__name__}", n_cut=n_cut, residual=nan, min_eig=nan)


def sweep_columns(spec: SweepSpec) -> list[str]:
    cols = [axis.name for axis in spec.axes]
    cols.extend(_BASE_COLUMNS)
    for group in _GROUP_COLUMNS:
        if group in spec.outputs:
            cols.extend(_GROUP_COLUMNS[group])
    return cols


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: str | Path, comment_lines: list[str], header: list[str], rows) -> None:
    """Write ``comment_lines`` as given, then the header and one line of cells per row
    (every qdmr CSV: numbers in round-trip form, None as an empty cell)."""
    with open(path, "w") as fh:
        for line in comment_lines:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")


def _metadata_lines(config: ModelConfig, spec: SweepSpec) -> list[str]:
    lines = [f"# qdmr sweep v{__version__}"]
    for key, value in config_to_dict(config).items():
        lines.append(f"# config.{key} = {_format_cell(value)}")
    for number, axis in enumerate(spec.axes, 1):
        lines.append(f"# sweep.axis{number} = {axis}")
    lines.append(f"# sweep.outputs = {','.join(spec.outputs)}")
    lines.append(f"# sweep.n_cut_policy = {spec.n_cut_policy}")
    return lines


def _sweep_signature(config: ModelConfig, spec: SweepSpec) -> str:
    text = "\n".join(_metadata_lines(config, spec))
    return hashlib.sha256(text.encode()).hexdigest()


def _evaluate_task(task: tuple) -> tuple[int, dict]:
    """Row of one grid point; ``task`` is (index, config, assignment, spec)."""
    index, config, assignment, spec = task
    try:
        point = config
        for axis in spec.axes:
            point = axis.apply(point, assignment[axis.name])
        result = run_point(point, spec.outputs, n_cut_policy=spec.n_cut_policy)
    except Exception as exc:  # invalid point, recorded like a solver failure
        result = _failed(config.system.n_cut, exc)
    return index, {**assignment, **result.row(spec.outputs)}


class JournalError(ValueError):
    """A sweep journal that ``resume`` cannot use: another sweep's, or a malformed line."""


def _read_journal(path: Path, data: bytes, signature: str) -> dict[int, dict]:
    """{index: row} from the complete lines ``data`` of the journal at ``path``,
    which must belong to the sweep with ``signature``."""
    done = {}
    for number, line in enumerate(data.splitlines(), 1):
        if number > 1 and not line.strip():
            continue
        try:
            entry = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JournalError(f"journal {path}: line {number} is not JSON ({exc}); remove it or drop --resume") from exc
        keys = {"signature": str} if number == 1 else {"index": int, "row": dict}
        if not (isinstance(entry, dict) and all(isinstance(entry.get(k), t) for k, t in keys.items())):
            raise JournalError(f"journal {path}: line {number} is not a journal entry; remove it or drop --resume")
        if number > 1:
            done[entry["index"]] = entry["row"]
        elif entry["signature"] != signature:
            raise JournalError(f"journal {path} does not match this sweep; remove it or drop --resume")
    return done


@dataclass(frozen=True)
class SweepOutcome:
    path: Path
    n_points: int
    n_errors: int
    n_capped: int  # rows with status n_cut_cap: the adaptive ladder reached ADAPTIVE_CAP unsettled


def run_sweep(
    config: ModelConfig,
    spec: SweepSpec,
    out_path: str | Path,
    *,
    resume: bool = False,
) -> SweepOutcome:
    out_path = Path(out_path)
    journal_path = out_path.with_name(out_path.name + ".journal")
    signature = _sweep_signature(config, spec)
    points = list(spec.points())

    done: dict[int, dict] = {}
    journaled = b""
    if resume and journal_path.exists():
        data = journal_path.read_bytes()
        complete = data.rfind(b"\n") + 1  # a last line without its newline was cut short
        journaled = data[:complete]
        done = _read_journal(journal_path, journaled, signature)
        os.truncate(journal_path, complete)  # its point is computed again

    tasks = [(index, config, assignment, spec) for index, assignment in points if index not in done]
    lost: dict[int, dict] = {}  # points a killed worker took with it: in the CSV, not the journal

    with open(journal_path, "a" if journaled else "w") as journal:
        if not journaled:
            journal.write(json.dumps({"signature": signature}) + "\n")
            journal.flush()
        if tasks:
            # identical spawned single-threaded workers regardless of count: keeps the
            # arithmetic (and hence the output bytes) schedule-independent
            saved = {name: os.environ.pop(name) for name in _BLAS_THREADS if name in os.environ}
            os.environ.update(_BLAS_THREADS)
            try:
                with ProcessPoolExecutor(max_workers=spec.workers, mp_context=get_context("spawn")) as pool:
                    futures = {pool.submit(_evaluate_task, t): t for t in tasks}
                    for fut in as_completed(futures):
                        try:
                            index, row = fut.result()
                        except BrokenProcessPool as exc:
                            index, _, assignment, _ = futures[fut]
                            lost[index] = {**assignment, **_failed(config.system.n_cut, exc).row(spec.outputs)}
                            continue
                        done[index] = row
                        journal.write(json.dumps({"index": index, "row": row}) + "\n")
                        journal.flush()
            finally:  # the caller's settings again; one it had not set stays unset
                for name in _BLAS_THREADS:
                    os.environ.pop(name, None)
                os.environ.update(saved)

    rows = [done[index] if index in done else lost[index] for index, _ in points]
    columns = sweep_columns(spec)
    write_csv(out_path, _metadata_lines(config, spec), columns, ([row.get(c) for c in columns] for row in rows))
    if not lost:
        journal_path.unlink(missing_ok=True)
    statuses = [str(row.get("status", "")) for row in rows]
    n_errors = sum(status.startswith("error") for status in statuses)
    return SweepOutcome(path=out_path, n_points=len(rows), n_errors=n_errors, n_capped=statuses.count("n_cut_cap"))
