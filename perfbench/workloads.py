"""The qdmr benchmark workloads: inputs made from a seed, one operation, its checks.

Every operation is one call of the program's command line,
``qdmr.cli.main``, inside the benchmark process: ``qdmr point``,
``qdmr sweep`` or ``qdmr markov-check`` on an INI file the benchmark
writes.  The program receives only those files.  All workloads are
closed loop with one client: the next operation starts when the last
one has returned.

Why these four: ``point-so40`` is the dense operator and LU solve at the
self-oscillation window; ``sweep-lam`` is the pool, the journal, the CSV,
the lam = 0 least-squares path and the 16-ray torotropy; ``adaptive-eq``
is the same solve at three sizes in series (the cutoff ladder); and
``markov`` is the bath correlation, which no other workload touches.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

DEFAULT_SEED = 1  # reference outputs are recorded for this seed

WORKERS = 2  # sweep pool size; equals nproc of the 2-CPU machine measured

# output checks
REL_TOL = 1e-8  # conservation, first law and lam = 0 closed form, relative
SCALE_FLOOR = 1e-6  # rad/ns: flows below this count as zero when scaling a check
SUM_RULE_RTOL = 2e-3  # frequency-grid truncation leaves about 6.4e-4 today
# reference agreement: well above solver agreement (about 2e-13), far below
# the 1.8% truncation drift between N=30 and N=100
REF_RTOL = 1e-6
REF_ATOL = 1e-10
DECAY_RTOL = 0.02  # decay time sits on a 2.5 ps grid; a few steps of slack
# solver noise, not outputs: never compared with the reference
NOISE_KEYS = {"residual", "min_eig", "first_law_residual"}
# at lam = 0 the phonon sector is not unique; only dot-sector outputs are
DOT_SECTOR_KEYS = {
    "current_L", "current_R", "occupation",
    "heat_el_L", "heat_el_R", "heat_mec_L", "heat_mec_R",
    "heat_tot_L", "heat_tot_R", "power", "mode", "eta_heater",
}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Outcome:
    """Checks of one operation: items attempted and failed, and the outputs."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    outputs: object = None


@dataclass
class Workload:
    name: str
    command: str  # qdmr subcommand
    inputs: list  # (ModelConfig, [sweep] section lines or None)

    def argv(self, index: int, workdir: Path) -> list[str]:
        config, sweep_lines = self.inputs[index % len(self.inputs)]
        ini = workdir / f"{self.name}-{index % len(self.inputs)}.ini"
        if not ini.exists():
            ini.write_text(_ini_text(config, sweep_lines))
        argv = [self.command, "--config", str(ini)]
        if self.command != "markov-check":
            out = workdir / f"{self.name}.out"
            out.unlink(missing_ok=True)  # a stale file must not pass for this run's output
            argv += ["--out", str(out)]
        return argv


def _ini_text(config, sweep_lines) -> str:
    from qdmr.configfile import config_to_dict

    sections: dict[str, list[str]] = {}
    for key, value in config_to_dict(config).items():
        section, name = key.split(".", 1)
        sections.setdefault(section, []).append(f"{name} = {value!r}")
    if sweep_lines:
        sections["sweep"] = sweep_lines
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n\n" for s, lines in sections.items())


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Inputs of a workload; the seed jitters the operating points inside its ranges
    (on every workload but ``sweep-lam``).

    ``smoke`` shrinks every size so that the self-test runs in seconds.
    """
    from qdmr.validation import reference_config

    rng = random.Random(f"{name}:{seed}")
    if name == "point-so40":
        n_cut = 8 if smoke else 40
        inputs = [
            (reference_config(
                delta_mu=rng.uniform(-51.0, -49.0), mu_tilde=rng.uniform(-1.0, 1.0),
                lam=0.7, n_cut=n_cut,
            ), None)
            for _ in range(4)
        ]
        return Workload(name, "point", inputs)
    common = ["outputs = transport, thermo, phasespace, mode", f"workers = {WORKERS}"]
    if name == "sweep-lam":
        # Not jittered: at lam = 0 the bordered LU solve is accepted or
        # falls back to least squares (about 15x the cost) depending on
        # rounding, so moving the grid ends by up to 3 changed the
        # run time by up to 25% from seed to seed.
        config = reference_config(delta_mu=-50.0, n_cut=6 if smoke else 20)
        lines = [
            f"axis1 = lam, 0.0, 1.4, {3 if smoke else 5}",
            f"axis2 = mu_tilde, -60.0, 60.0, {3 if smoke else 9}",
            "n_cut_policy = fixed",
        ]
        return Workload(name, "sweep", [(config, lines + common)])
    if name == "adaptive-eq":
        mu_lo, mu_hi = -60.0 + rng.uniform(0.0, 3.0), 60.0 - rng.uniform(0.0, 3.0)
        # the adaptive ladder always starts at N=20
        config = reference_config(delta_mu=0.0, lam=0.7, n_cut=20)
        lines = [f"axis1 = mu_tilde, {mu_lo!r}, {mu_hi!r}, {2 if smoke else 6}", "n_cut_policy = adaptive"]
        return Workload(name, "sweep", [(config, lines + common)])
    if name == "markov":
        inputs = [
            (reference_config(delta_mu=rng.uniform(-42.0, -38.0), delta_t_mk=40.0), None)
            for _ in range(4)
        ]
        return Workload(name, "markov-check", inputs)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("point-so40", "sweep-lam", "adaptive-eq", "markov")


# --- checks -----------------------------------------------------------------


def _scaled_ok(residual: float, *flows: float) -> bool:
    scale = max([abs(f) for f in flows] + [SCALE_FLOOR])
    return abs(residual) <= REL_TOL * scale


def _num(text: str) -> float:
    return float(text) if text not in ("", "None") else float("nan")


def _physics_problems(values: dict, config) -> list[str]:
    """Conservation, first law and, at lam = 0, the closed-form current."""
    from qdmr.validation import two_state_current

    problems = []
    v = {k: _num(values[k]) for k in (
        "current_L", "current_R", "heat_el_L", "heat_el_R",
        "heat_mec_L", "heat_mec_R", "power", "first_law_residual", "min_eig",
    )}
    if not v["min_eig"] >= -1e-8:
        problems.append(f"min_eig {v['min_eig']!r}")
    if not _scaled_ok(v["current_L"] + v["current_R"], v["current_L"], v["current_R"]):
        problems.append(f"particle conservation I_L+I_R = {v['current_L'] + v['current_R']!r}")
    energies = (v[k] for k in ("heat_el_L", "heat_el_R", "heat_mec_L", "heat_mec_R", "power"))
    if not _scaled_ok(v["first_law_residual"], *energies):
        problems.append(f"first law residual {v['first_law_residual']!r}")
    if config.system.lam == 0.0:
        expected = two_state_current(config)
        if not _scaled_ok(v["current_R"] - expected, expected):
            problems.append(f"lam=0 current_R {v['current_R']!r} != closed form {expected!r}")
    return problems


def _same(a: str, b: str, rtol: float = REF_RTOL, atol: float = REF_ATOL) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= rtol * abs(y) + atol


def _row_mismatches(row: dict, ref: dict, lam_zero: bool) -> list[str]:
    keys = DOT_SECTOR_KEYS if lam_zero else set(ref) - NOISE_KEYS
    return [f"{k} {row.get(k)} != reference {ref[k]}" for k in sorted(keys & set(ref)) if not _same(row.get(k, ""), ref[k])]


def _read_csv_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check(workload: Workload, index: int, workdir: Path, rc: int, checker, reference) -> Outcome:
    """Check one operation's outputs; ``reference`` is None unless the seed has one.

    ``checker`` holds what the program returned in-process during the
    operation (see ``tracing.OutputChecker``).
    """
    config, _ = workload.inputs[index % len(workload.inputs)]
    out = workdir / f"{workload.name}.out"
    if workload.command == "point":
        return _check_point(config, out, rc, checker.records, reference)
    if workload.command == "sweep":
        return _check_sweep(config, out, rc, checker.records, reference)
    return _check_markov(config, rc, checker.correlations, reference)


def _check_point(config, out: Path, rc: int, records: list[dict], reference) -> Outcome:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    values = {}
    for line in out.read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key != "warning":
            values[key] = value
    problems += [p for r in records for p in r["problems"]]
    if len(records) != 1:
        problems.append(f"{len(records)} solved points, expected 1")
    problems += _physics_problems(values, config)
    if reference is not None:
        problems += _row_mismatches(values, reference, config.system.lam == 0.0)
    return Outcome(1, int(bool(problems)), problems, values)


def _check_sweep(config, out: Path, rc: int, records: list[dict], reference) -> Outcome:
    rows = _read_csv_rows(out)
    by_point: dict[tuple, list[str]] = {}
    for r in records:
        by_point.setdefault((r["lam"], r["mu_tilde"]), []).extend(r["problems"])
    problems, failed = [], 0
    if reference is not None and len(reference) != len(rows):
        problems.append(f"{len(rows)} rows, reference has {len(reference)}")
        failed = len(rows)
    for i, row in enumerate(rows):
        lam = float(row["lam"]) if "lam" in row else config.system.lam
        mu = float(row["mu_tilde"])
        cfg = replace(config, system=replace(config.system, lam=lam, mu_tilde=mu))
        row_problems = list(by_point.get((lam, mu), ["no worker check recorded"]))
        if row["status"].startswith("error") or row["status"] == "n_cut_cap":
            row_problems.append(f"status {row['status']}")
        row_problems += _physics_problems(row, cfg)
        if reference is not None and i < len(reference):
            row_problems += _row_mismatches(row, reference[i], lam == 0.0)
        if row_problems:
            failed += 1
            problems += [f"lam={lam} mu_tilde={mu}: {p}" for p in row_problems]
    if rc != 0:
        problems.append(f"exit code {rc}")
        failed = max(failed, 1)
    return Outcome(len(rows), min(failed, len(rows)), problems, rows)


def _check_markov(config, rc: int, correlations: list[dict], reference) -> Outcome:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    by_label = {c["label"]: c for c in correlations}
    if sorted(by_label) != ["L", "R"] or len(correlations) != 2:
        problems.append(f"expected one correlation trace per lead, got {[c['label'] for c in correlations]}")
    for lead in config.leads:
        trace = by_label.get(lead.label)
        if trace is None:
            continue
        label, c0 = lead.label, trace["c0"]
        if not trace["converged"]:
            problems.append(f"lead {label}: correlation does not decay in the window")
        expected = 0.5 * lead.gamma_rate * lead.delta
        if abs(c0[0] + c0[2] - expected) > SUM_RULE_RTOL * expected:
            problems.append(f"lead {label}: Re C(0) sum {c0[0] + c0[2]!r} != gamma*delta/2 {expected!r}")
        if reference is not None:
            ref = reference[label]
            if not _same(trace["decay_ns"], ref["decay_ns"], DECAY_RTOL, 0.0):
                problems.append(f"lead {label}: decay {trace['decay_ns']} ns != reference {ref['decay_ns']}")
            if max(abs(a - b) for a, b in zip(c0, ref["c0"])) > SUM_RULE_RTOL * expected:
                problems.append(f"lead {label}: C(0) {c0} != reference {ref['c0']}")
    return Outcome(1, int(bool(problems)), problems, by_label)


def load_reference(name: str, seed: int, smoke: bool):
    """Reference outputs of the workload by input index, for the default seed only."""
    if smoke or seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_PATH.read_text())[name]
