"""Single-point evaluation and parameter sweeps.

Sweep output is deterministic: rows are emitted in row-major axis order
with round-trip float formatting, metadata excludes anything
machine- or schedule-dependent, and every point is evaluated in a
spawned single-threaded worker process regardless of the worker count,
so the same sweep produces byte-identical files with 1 or 8 workers.
Completed points are journaled as JSON lines next to the output file;
an interrupted sweep picks up where it left off with ``resume=True``.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__, observables, phasespace, redfield
from .configfile import SweepSpec, config_from_dict, config_to_dict
from .model import ModelConfig

ADAPTIVE_START = 20
ADAPTIVE_STEP = 10
ADAPTIVE_CAP = 80
ADAPTIVE_TAIL_TOL = 1e-6
ADAPTIVE_DRIFT_TOL = 0.01

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


def apply_axis(config: ModelConfig, name: str, value: float) -> ModelConfig:
    if name == "mu_tilde":
        return replace(config, system=replace(config.system, mu_tilde=value))
    if name == "lam":
        return replace(config, system=replace(config.system, lam=value))
    if name == "delta_mu":
        return config.with_bias(value)
    raise ValueError(f"unknown sweep axis {name!r}")


@dataclass
class PointResult:
    """Everything computed at one operating point, plus solve diagnostics."""

    status: str
    n_cut: int
    residual: float
    min_eig: float
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


def _solve_point(config: ModelConfig, outputs: tuple[str, ...]) -> PointResult:
    lam = config.system.lam
    sol = redfield.solve(config, allow_degenerate=(lam == 0.0))
    lab = sol.lab

    tq_result = None
    ergo = None
    if "phasespace" in outputs and lab is not None:
        tq_result = phasespace.torotropy(lab, lam)
        rho_qmr, _ = phasespace.reduce_resonator(lab)
        ergo = phasespace.ergotropy(rho_qmr, config.system.omega)

    report = observables.build_report(
        config, sol.polaron, lab, *sol.tensors,
        torotropy_value=tq_result.value if tq_result else None,
    )
    return PointResult(
        status="degenerate" if sol.info.degenerate else "ok",
        n_cut=config.system.n_cut,
        residual=sol.info.residual,
        min_eig=min(sol.info.min_eig),
        report=report,
        torotropy=tq_result,
        ergotropy=ergo,
        polaron_state=sol.polaron,
        lab_state=lab,
    )


def run_point(
    config: ModelConfig,
    outputs: tuple[str, ...] = ("transport", "thermo", "phasespace", "mode"),
    *,
    n_cut_policy: str = "fixed",
) -> PointResult:
    """Evaluate one operating point; exceptions become an error-status result.

    With ``n_cut_policy='adaptive'`` the truncation is raised from 20 in
    steps of 10 until the top-decile Fock population falls below 1e-6
    and the torotropy (when requested) moves by less than 1% between
    consecutive sizes, capping at 80.
    """
    try:
        if n_cut_policy == "fixed" or config.system.lam == 0.0:
            return _solve_point(config, outputs)
        result = None
        n = ADAPTIVE_START
        while True:
            cfg = replace(config, system=replace(config.system, n_cut=n))
            prev = result
            result = _solve_point(cfg, outputs)
            tail_ok = result.lab_state is not None and result.lab_state.fock_tail < ADAPTIVE_TAIL_TOL
            drift_ok = True
            if "phasespace" in outputs and prev is not None and prev.torotropy and result.torotropy:
                a, b = prev.torotropy.value, result.torotropy.value
                drift_ok = abs(a - b) <= ADAPTIVE_DRIFT_TOL * max(abs(a), abs(b)) or max(abs(a), abs(b)) < 1e-9
            need_drift = "phasespace" in outputs
            if tail_ok and (not need_drift or (prev is not None and drift_ok)):
                return result
            if n >= ADAPTIVE_CAP:
                return replace(result, status="n_cut_cap")
            n += ADAPTIVE_STEP
    except Exception as exc:  # recorded per point, never fatal to a sweep
        return _failed(config.system.n_cut, exc)


def _failed(n_cut: int, exc: Exception) -> PointResult:
    nan = float("nan")
    return PointResult(status=f"error:{type(exc).__name__}", n_cut=n_cut, residual=nan, min_eig=nan)


def sweep_columns(spec: SweepSpec) -> list[str]:
    cols = [spec.axis1.name]
    if spec.axis2 is not None:
        cols.append(spec.axis2.name)
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


def _metadata_lines(config: ModelConfig, spec: SweepSpec) -> list[str]:
    lines = [f"# qdmr sweep v{__version__}"]
    for key, value in config_to_dict(config).items():
        lines.append(f"# config.{key} = {_format_cell(value)}")
    a1 = spec.axis1
    lines.append(f"# sweep.axis1 = {a1.name},{a1.start!r},{a1.stop!r},{a1.count}")
    if spec.axis2 is not None:
        a2 = spec.axis2
        lines.append(f"# sweep.axis2 = {a2.name},{a2.start!r},{a2.stop!r},{a2.count}")
    lines.append(f"# sweep.outputs = {','.join(spec.outputs)}")
    lines.append(f"# sweep.n_cut_policy = {spec.n_cut_policy}")
    return lines


def _sweep_signature(config: ModelConfig, spec: SweepSpec) -> str:
    text = "\n".join(_metadata_lines(config, spec))
    return hashlib.sha256(text.encode()).hexdigest()


def _point_assignments(spec: SweepSpec) -> list[tuple[int, dict[str, float]]]:
    v1 = spec.axis1.values()
    v2 = spec.axis2.values() if spec.axis2 is not None else [None]
    points = []
    for i, a in enumerate(v1):
        for j, b in enumerate(v2):
            assign = {spec.axis1.name: a}
            if spec.axis2 is not None:
                assign[spec.axis2.name] = b
            points.append((i * len(v2) + j, assign))
    return points


def _evaluate_task(args: tuple) -> tuple[int, dict]:
    index, config_data, assign, outputs, n_cut_policy = args
    try:
        config = config_from_dict(config_data)
        for name, value in assign.items():
            config = apply_axis(config, name, value)
        result = run_point(config, tuple(outputs), n_cut_policy=n_cut_policy)
    except Exception as exc:  # invalid point, recorded like a solver failure
        result = _failed(int(config_data["system.n_cut"]), exc)
    row = dict(assign)
    row.update(result.row(tuple(outputs)))
    return index, row


@dataclass(frozen=True)
class SweepOutcome:
    path: Path
    n_points: int
    n_errors: int


def run_sweep(
    config: ModelConfig,
    spec: SweepSpec,
    out_path: str | Path,
    *,
    resume: bool = False,
    workers: int | None = None,
) -> SweepOutcome:
    out_path = Path(out_path)
    journal_path = out_path.with_name(out_path.name + ".journal")
    workers = spec.workers if workers is None else workers
    signature = _sweep_signature(config, spec)
    points = _point_assignments(spec)

    done: dict[int, dict] = {}
    if resume and journal_path.exists():
        with open(journal_path) as fh:
            first = fh.readline()
            if first and json.loads(first).get("signature") != signature:
                raise ValueError("journal does not match this sweep; remove it or drop --resume")
            for line in fh:
                if line.strip():
                    entry = json.loads(line)
                    done[entry["index"]] = entry["row"]

    pending = [(i, a) for i, a in points if i not in done]
    config_data = config_to_dict(config)
    tasks = [(i, config_data, a, list(spec.outputs), spec.n_cut_policy) for i, a in pending]

    mode = "a" if (resume and journal_path.exists()) else "w"
    with open(journal_path, mode) as journal:
        if mode == "w":
            journal.write(json.dumps({"signature": signature}) + "\n")
            journal.flush()
        if tasks:
            # identical spawned workers regardless of count: keeps the
            # arithmetic (and hence the output bytes) schedule-independent
            os.environ.setdefault("OMP_NUM_THREADS", "1")
            os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
            os.environ.setdefault("MKL_NUM_THREADS", "1")
            ctx = get_context("spawn")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                futures = [pool.submit(_evaluate_task, t) for t in tasks]
                for fut in as_completed(futures):
                    index, row = fut.result()
                    done[index] = row
                    journal.write(json.dumps({"index": index, "row": row}) + "\n")
                    journal.flush()

    columns = sweep_columns(spec)
    lines = _metadata_lines(config, spec)
    lines.append(",".join(columns))
    n_errors = 0
    for index, _ in points:
        row = done[index]
        if str(row.get("status", "")).startswith("error"):
            n_errors += 1
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    out_path.write_text("\n".join(lines) + "\n")
    journal_path.unlink(missing_ok=True)
    return SweepOutcome(path=out_path, n_points=len(points), n_errors=n_errors)
