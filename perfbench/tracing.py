"""Spans, counters and output checks around the public functions of qdmr.

Every wrapper is installed where the function is looked up, so calls
made through a module-level import are seen too: ``redfield`` calls
``displacement_matrix`` and ``phasespace`` calls ``coherent_overlap``
by their imported names.  Nothing under ``src/`` changes.

Spans are kept in memory as (name, start, end, parent).  Sweep workers
get the same wrappers from a pool initializer, because a spawned worker
imports ``qdmr`` afresh, and write their spans and checks to one file
each when they exit; the benchmark process reads them after the sweep.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute as looked up by its callers, layer name)
SPAN_SITES = (
    ("qdmr.cli", "main", "cli.main"),
    ("qdmr.cli", "load_config", "configfile.load_config"),
    ("qdmr.sweep", "run_sweep", "sweep.run_sweep"),
    ("qdmr.sweep", "run_point", "sweep.run_point"),
    ("qdmr.redfield", "build_tensors", "redfield.build_tensors"),
    ("qdmr.redfield", "displacement_matrix", "phonon.displacement_matrix"),
    ("qdmr.redfield", "assemble_liouvillian", "redfield.assemble_liouvillian"),
    ("qdmr.redfield", "steady_state", "redfield.steady_state"),
    ("qdmr.redfield", "to_lab_frame", "redfield.to_lab_frame"),
    ("qdmr.phasespace", "torotropy", "phasespace.torotropy"),
    ("qdmr.phasespace", "coherent_overlap", "phonon.coherent_overlap"),
    ("qdmr.phasespace", "ergotropy", "phasespace.ergotropy"),
    ("qdmr.observables", "build_report", "observables.build_report"),
    ("qdmr.leads", "bath_correlation", "leads.bath_correlation"),
)

# layers whose self time is reported, and those whose call count is
SELF_TIME_LAYERS = (
    "cli.main",
    "configfile.load_config",
    "sweep.run_point",
    "redfield.build_tensors",
    "phonon.displacement_matrix",
    "redfield.assemble_liouvillian",
    "redfield.steady_state",
    "redfield.to_lab_frame",
    "phasespace.torotropy",
    "phonon.coherent_overlap",
    "phasespace.ergotropy",
    "observables.build_report",
    "leads.bath_correlation",
)
CALL_COUNT_LAYERS = (
    "redfield.build_tensors",
    "phonon.displacement_matrix",
    "redfield.assemble_liouvillian",
    "redfield.steady_state",
    "phasespace.torotropy",
    "leads.bath_correlation",
)

# (name, unit) of every per-layer metric, in the order printed
PER_LAYER_METRICS = (
    tuple((f"{layer}.self_s", "s/op") for layer in SELF_TIME_LAYERS)
    + tuple((f"{layer}.calls", "calls/op") for layer in CALL_COUNT_LAYERS)
    + (
        ("redfield.operator_bytes", "B_computed"),
        ("redfield.lstsq_share", "1"),
        ("phasespace.husimi_points", "count/op"),
        ("sweep.solves_per_point", "1"),
        ("sweep.worker_busy_share", "1"),
        ("leads.freq_points", "count"),
        ("trace.op_s", "s"),
        ("trace.overhead_frac", "1"),
    )
)

# gates of the checks made on each solved point
TRACE_TOL = 1e-10
HERMITIAN_TOL = 1e-12
MIN_EIG_TOL = -1e-8


def _patch(module_name: str, attr: str, make_wrapper) -> None:
    module = importlib.import_module(module_name)
    setattr(module, attr, make_wrapper(getattr(module, attr)))


class Tracer:
    """Spans and counters of one process."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.operator_bytes = 0
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name in SPAN_SITES:
            _patch(module_name, attr, lambda fn, name=name: self._span(fn, name))
        # husimi(rho, alpha): count the alpha values evaluated
        _patch("qdmr.phasespace", "husimi", lambda fn: self._count_size(fn, "husimi_points", 1))
        # inside qdmr.leads only bath_correlation calls rate_out, once per
        # call with its whole frequency grid
        _patch("qdmr.leads", "rate_out", lambda fn: self._count_size(fn, "freq_points", 0))

    def _span(self, fn, name: str):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = (start, end)
            if name == "redfield.steady_state":
                self.counts[f"method.{result[1].method}"] += 1
            elif name == "redfield.assemble_liouvillian":
                dim = 2 * result.n_cut**2
                self.operator_bytes = max(self.operator_bytes, dim * dim * 16)
            return result

        return wrapper

    def _count_size(self, fn, key: str, arg_index: int):
        import numpy as np

        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[key] += int(np.size(args[arg_index]))
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "operator_bytes": self.operator_bytes,
        }


def point_problems(result) -> list[str]:
    """Checks on one solved point: status, trace one, Hermiticity, block min_eig."""
    import numpy as np

    problems = []
    if result.status.startswith("error") or result.status == "n_cut_cap":
        problems.append(f"status {result.status}")
    for frame, state in (("polaron", result.polaron_state), ("lab", result.lab_state)):
        if state is None:
            continue
        if frame == "polaron" and abs(state.trace - 1.0) > TRACE_TOL:
            problems.append(f"trace {state.trace!r}")
        for block_name, block in (("rho0", state.rho0), ("rho1", state.rho1)):
            herm = float(np.abs(block - block.conj().T).max())
            if herm > HERMITIAN_TOL:
                problems.append(f"{frame} {block_name} hermiticity {herm:.3e}")
            low = float(np.linalg.eigvalsh(block)[0])
            if low < MIN_EIG_TOL:
                problems.append(f"{frame} {block_name} min_eig {low:.3e}")
    return problems


class OutputChecker:
    """Records the checks of every point ``sweep.run_point`` returns, and the
    zero-time values of every trace ``leads.bath_correlation`` returns."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.correlations: list[dict] = []

    def install(self) -> None:
        _patch("qdmr.sweep", "run_point", self._wrap_point)
        _patch("qdmr.leads", "bath_correlation", self._wrap_correlation)

    def clear(self) -> None:
        self.records.clear()
        self.correlations.clear()

    def _wrap_point(self, fn):
        def wrapper(config, *args, **kwargs):
            result = fn(config, *args, **kwargs)
            self.records.append({
                "lam": config.system.lam,
                "mu_tilde": config.system.mu_tilde,
                "problems": point_problems(result),
            })
            return result

        return wrapper

    def _wrap_correlation(self, fn):
        def wrapper(*args, **kwargs):
            trace = fn(*args, **kwargs)
            c_out, c_in = complex(trace.c_out[0]), complex(trace.c_in[0])
            self.correlations.append({
                "label": trace.label,
                "converged": bool(trace.converged),
                "decay_ns": float(trace.decay_time),
                "c0": [c_out.real, c_out.imag, c_in.real, c_in.imag],
            })
            return trace

        return wrapper


def worker_init(dump_dir: str, traced: bool) -> None:
    """Pool initializer: install the checker (and the tracer) in a sweep worker."""
    tracer = Tracer(enabled=traced)
    if traced:
        tracer.install()
    checker = OutputChecker()  # outermost, so check time stays out of the spans
    checker.install()

    def write() -> None:
        record = tracer.dump()
        record["checks"] = checker.records
        path = Path(dump_dir) / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(record))

    atexit.register(write)


def read_worker_dumps(dump_dir: Path) -> list[dict]:
    dumps = []
    for path in sorted(dump_dir.glob("worker-*.json")):
        dumps.append(json.loads(path.read_text()))
        path.unlink()
    return dumps


def _self_times(spans: list[list]) -> tuple[dict, Counter]:
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - child_time[index]
        calls[name] += 1
    return self_s, calls


def layer_metrics(
    parent: dict,
    workers: list[dict],
    n_ops: int,
    n_workers: int,
    traced_op_s: list[float],
    untraced_op_s: list[float],
) -> dict[str, dict]:
    """Per-layer metrics of a traced run, each per operation unless stated."""
    self_s = defaultdict(float)
    calls = Counter()
    counts = Counter()
    operator_bytes = 0
    busy_s = 0.0
    for dump in [parent] + workers:
        s, c = _self_times(dump["spans"])
        for name, value in s.items():
            self_s[name] += value
        calls.update(c)
        counts.update(dump["counts"])
        operator_bytes = max(operator_bytes, dump["operator_bytes"])
    for dump in workers:
        busy_s += sum(end - start for name, start, end, _ in dump["spans"] if name == "sweep.run_point")
    sweep_wall = sum(end - start for name, start, end, _ in parent["spans"] if name == "sweep.run_sweep")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solves = calls["redfield.steady_state"]
    traced = statistics.median(traced_op_s)
    untraced = statistics.median(untraced_op_s)
    values = {f"{layer}.self_s": self_s[layer] / n_ops for layer in SELF_TIME_LAYERS}
    values.update({f"{layer}.calls": calls[layer] / n_ops for layer in CALL_COUNT_LAYERS})
    values.update({
        "redfield.operator_bytes": operator_bytes,
        "redfield.lstsq_share": ratio(counts["method.lstsq"], solves),
        "phasespace.husimi_points": counts["husimi_points"] / n_ops,
        "sweep.solves_per_point": ratio(solves, calls["sweep.run_point"]),
        "sweep.worker_busy_share": ratio(busy_s, n_workers * sweep_wall),
        "leads.freq_points": ratio(counts["freq_points"], calls["leads.bath_correlation"]),
        "trace.op_s": traced,
        "trace.overhead_frac": traced / untraced - 1.0,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
