"""Configuration files, axis plumbing, point evaluation, and sweep output."""

import configparser
import csv
import json
import math
import os
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from multiprocessing import get_context

import pytest

from qdmr import phasespace, redfield, sweep
from qdmr.configfile import (
    OUTPUT_GROUPS,
    SWEEP_AXES,
    ConfigError,
    SweepAxis,
    SweepSpec,
    apply_overrides,
    config_to_dict,
    load_config,
)
from qdmr.sweep import run_point, run_sweep
from qdmr.validation import reference_config, two_state_current

from conftest import make_config
from oracles import adaptive_ladder_lu

BASE_INI = """
[system]
omega = 6.283185307179586
lam = 0.7
mu_tilde = -5.0
n_cut = 10

[lead_L]
gamma_rate = 1.2566370614359172
delta = 10.0
gamma_center = -10.0
temperature = 13.0920339
chem_potential = 30.0

[lead_R]
gamma_rate = 1.2566370614359172
delta = 10.0
gamma_center = 10.0
temperature = 13.0920339
chem_potential = -30.0
"""

SWEEP_INI = (
    BASE_INI
    + """
[sweep]
axis1 = mu_tilde, -2.0, 2.0, 3
axis2 = delta_mu, -10.0, 10.0, 2
outputs = transport, thermo, phasespace, mode
n_cut_policy = fixed
workers = 1
"""
)


@pytest.fixture
def ini_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_INI)
    return path


@pytest.fixture
def sweep_ini_path(tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text(SWEEP_INI)
    return path


class TestConfigFile:
    def test_loads_all_sections(self, ini_path):
        config, spec = load_config(ini_path)
        assert spec is None
        assert config.system.lam == 0.7
        assert config.system.n_cut == 10
        assert config.lead_L.gamma_center == -10.0
        assert config.lead_R.chem_potential == -30.0
        assert config.lead_L.chem_potential - config.lead_R.chem_potential == 60.0

    def test_bias_section_overrides_lead_potentials(self, tmp_path):
        path = tmp_path / "bias.ini"
        path.write_text(BASE_INI + "\n[bias]\ndelta_mu = -50.0\n")
        config, _ = load_config(path)
        assert config.lead_L.chem_potential == -25.0
        assert config.lead_R.chem_potential == 25.0

    def test_overrides_apply_before_build(self, ini_path):
        config, _ = load_config(
            ini_path, overrides=["system.mu_tilde=4.5", "lead_L.temperature=7.86"]
        )
        assert config.system.mu_tilde == 4.5
        assert config.lead_L.temperature == 7.86

    def test_bad_override_syntax(self, ini_path):
        with pytest.raises(ConfigError):
            load_config(ini_path, overrides=["mu_tilde=4.5"])
        with pytest.raises(ConfigError):
            load_config(ini_path, overrides=["system.mu_tilde:4.5"])

    def test_override_section_is_stripped_before_lookup(self, ini_path):
        config, _ = load_config(ini_path, ["bias .delta_mu=3"])
        assert config.lead_L.chem_potential - config.lead_R.chem_potential == 3.0
        with pytest.raises(ConfigError, match=r"unknown section \[newsec\]"):
            load_config(ini_path, ["bias .delta_mu=3", "newsec .x=1"])
        parser = configparser.ConfigParser()
        parser.read_string("[bias]\ndelta_mu = 1\n")
        apply_overrides(parser, ["bias .delta_mu=3", "newsec .x=1"])
        assert parser.sections() == ["bias", "newsec"]
        assert parser.get("bias", "delta_mu") == "3"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_missing_section_reports_config_error(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[system]\nomega = 6.28\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_key_names_section_and_key(self, tmp_path):
        # configparser returns None for absent keys; that must surface as
        # a config error, not leak into the parameter objects
        path = tmp_path / "broken.ini"
        path.write_text(BASE_INI.replace("omega = ", "omega_typo = "))
        with pytest.raises(ConfigError, match=r"\[system\].*'omega'"):
            load_config(path)
        path.write_text(BASE_INI.replace("temperature = ", "temp = "))
        with pytest.raises(ConfigError, match=r"\[lead_(L|R)\].*'temperature'"):
            load_config(path)

    @pytest.mark.parametrize(
        "override, message",
        [
            ("lead_R.mu=1", r"\[lead_R\] unknown key 'mu'"),
            ("bias.delta=1", r"\[bias\] unknown key 'delta'"),
            ("sweep.worker=2", r"\[sweep\] unknown key 'worker'"),
        ],
    )
    def test_unknown_section_or_key_is_an_error(self, override, message, sweep_ini_path):
        with pytest.raises(ConfigError, match=message):
            load_config(sweep_ini_path, [override])

    def test_default_section_keys_are_unknown(self, tmp_path):
        path = tmp_path / "defaults.ini"
        path.write_text("[DEFAULT]\ncoupling = 0.7\n" + BASE_INI)
        with pytest.raises(ConfigError, match="unknown key 'coupling'"):
            load_config(path)

    def test_out_of_range_value_reports_config_error(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text(BASE_INI.replace("n_cut = ", "n_cut = -"))
        with pytest.raises(ConfigError, match="n_cut"):
            load_config(path)

    def test_sweep_section(self, sweep_ini_path):
        _, spec = load_config(sweep_ini_path)
        assert spec.axis1 == SweepAxis("mu_tilde", -2.0, 2.0, 3)
        assert spec.axis2 == SweepAxis("delta_mu", -10.0, 10.0, 2)
        assert spec.outputs == ("transport", "thermo", "phasespace", "mode")
        assert spec.n_cut_policy == "fixed"

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            SweepAxis("voltage", 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            SweepAxis("mu_tilde", 0.0, 1.0, 0)
        for start, stop in [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308)]:
            with pytest.raises(ValueError, match="finite"):
                SweepAxis("lam", start, stop, 3)

    def test_axis_text_reads_back(self, tmp_path):
        axis = SweepAxis("mu_tilde", -1 / 3, 0.1, 7)
        assert str(axis) == "mu_tilde,-0.3333333333333333,0.1,7"
        path = tmp_path / "axis.ini"
        path.write_text(BASE_INI + f"\n[sweep]\naxis1 = {axis}\n")
        assert load_config(path)[1].axis1 == axis

    def test_points_are_row_major(self):
        spec = SweepSpec(axis1=SweepAxis("lam", 0.0, 1.0, 2), axis2=SweepAxis("mu_tilde", -1.0, 1.0, 3))
        assert list(spec.points()) == [
            (0, {"lam": 0.0, "mu_tilde": -1.0}),
            (1, {"lam": 0.0, "mu_tilde": 0.0}),
            (2, {"lam": 0.0, "mu_tilde": 1.0}),
            (3, {"lam": 1.0, "mu_tilde": -1.0}),
            (4, {"lam": 1.0, "mu_tilde": 0.0}),
            (5, {"lam": 1.0, "mu_tilde": 1.0}),
        ]
        assert list(SweepSpec(axis1=SweepAxis("lam", 0.5, 1.0, 1)).points()) == [(0, {"lam": 0.5})]

    def test_axis_values_hit_endpoints(self):
        axis = SweepAxis("delta_mu", -10.0, 10.0, 5)
        assert axis.values() == [-10.0, -5.0, 0.0, 5.0, 10.0]
        assert SweepAxis("lam", 0.3, 0.9, 1).values() == [0.3]

    def test_spec_validation(self):
        axis = SweepAxis("mu_tilde", 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            SweepSpec(axis1=axis, outputs=("transport", "bogus"))
        with pytest.raises(ValueError):
            SweepSpec(axis1=axis, n_cut_policy="grow")
        with pytest.raises(ValueError):
            SweepSpec(axis1=axis, workers=0)
        with pytest.raises(ValueError, match="axis1 and sweep.axis2 both sweep 'mu_tilde'"):
            SweepSpec(axis1=axis, axis2=SweepAxis("mu_tilde", 5.0, 6.0, 2))

    def test_dict_round_trip(self, tmp_path):
        # config_to_dict written as INI lines reads back as the same config
        config = make_config(mu_tilde=-3.0, delta_mu=24.0, lam=0.9, n_cut=14)
        sections = {}
        for dotted, value in config_to_dict(config).items():
            section, key = dotted.split(".")
            sections.setdefault(section, []).append(f"{key} = {value!r}")
        path = tmp_path / "round.ini"
        path.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()))
        assert load_config(path) == (config, None)


class TestApplyAxis:
    def test_each_axis(self):
        config = make_config()
        assert SweepAxis("mu_tilde", 0.0, 1.0, 2).apply(config, 7.0).system.mu_tilde == 7.0
        assert SweepAxis("lam", 0.0, 1.0, 2).apply(config, 0.4).system.lam == 0.4
        biased = SweepAxis("delta_mu", 0.0, 1.0, 2).apply(config, -30.0)
        assert biased.lead_L.chem_potential == -15.0
        assert biased.lead_R.chem_potential == 15.0


class TestRunPoint:
    def test_ok_point_carries_full_row(self):
        config = make_config(mu_tilde=-5.0, delta_mu=60.0, lam=0.7, n_cut=16)
        result = run_point(config)
        assert result.status == "ok"
        assert result.n_cut == 16
        row = result.row(("transport", "thermo", "phasespace", "mode"))
        assert row["current_R"] == result.report.current_r
        assert row["torotropy"] == result.torotropy.value
        assert not math.isnan(row["ergotropy"])

    def test_identical_configs_give_identical_rows(self):
        config = make_config(mu_tilde=-5.0, delta_mu=60.0, lam=0.7, n_cut=12)
        row_a = run_point(config).row(("transport", "thermo"))
        row_b = run_point(config).row(("transport", "thermo"))
        assert row_a == row_b

    def test_output_groups_are_the_column_groups_in_order(self):
        # sweep_columns orders the CSV by _GROUP_COLUMNS; [sweep] outputs is
        # validated against OUTPUT_GROUPS
        assert tuple(sweep._GROUP_COLUMNS) == OUTPUT_GROUPS

    def test_outputs_select_columns(self):
        config = make_config(mu_tilde=-5.0, delta_mu=60.0, n_cut=10)
        row = run_point(config, outputs=("transport",)).row(("transport",))
        assert "current_L" in row and "torotropy" not in row and "mode" not in row

    def test_zero_coupling_point_is_degenerate_with_nan_phasespace(self):
        config = make_config(lam=0.0, mu_tilde=2.0, delta_mu=20.0, n_cut=8)
        result = run_point(config)
        assert result.status == "degenerate"
        assert result.lab_state is None
        row = result.row(("transport", "thermo", "phasespace", "mode"))
        assert math.isnan(row["torotropy"])
        assert math.isnan(row["phonon_number"])
        assert not math.isnan(row["current_R"])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_non_finite_axis_value_is_an_error_row(self, axis, value):
        spec = SweepSpec(axis1=SweepAxis(axis, 0.0, 1.0, 1), outputs=("transport",))
        task = (0, make_config(n_cut=6), {axis: value}, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic
            _, row = sweep._evaluate_task(task)
        assert row["status"] == "error:ValueError"
        assert row["n_cut"] == 6

    @pytest.mark.parametrize("lam", [1e-12, 1e-10, 1e-9, 1e-8])
    def test_numerically_degenerate_coupling_fails_positivity_gate(self, lam):
        # 0 < lam <= 1e-8 is not flagged decoupled, but the generator is
        # numerically degenerate: LU meets the residual gate with a state
        # whose smallest block eigenvalue is -0.1 to -5e-3
        config = make_config(lam=lam, mu_tilde=0.0, delta_mu=-50.0, n_cut=20)
        result = run_point(config)
        assert result.status == "error:SteadyStateError"

    def test_adaptive_error_row_names_the_cutoff_that_failed(self):
        # the ladder starts at ADAPTIVE_START whatever the configured cutoff,
        # and this point fails the positivity gate on its first rung
        config = reference_config(delta_mu=-50.0, lam=1e-10, n_cut=6)
        result = run_point(config, n_cut_policy="adaptive")
        assert result.status == "error:SteadyStateError"
        assert result.n_cut == sweep.ADAPTIVE_START == 20
        assert run_point(config).n_cut == 6

    def test_small_coupling_above_degeneracy_stays_ok(self):
        config = make_config(lam=1e-6, mu_tilde=0.0, delta_mu=-50.0, n_cut=20)
        result = run_point(config)
        assert result.status == "ok"
        assert result.min_eig >= -1e-8

    def test_adaptive_policy_grows_until_converged(self):
        config = make_config(mu_tilde=-5.0, delta_mu=60.0, lam=0.7, n_cut=10)
        result = run_point(config, n_cut_policy="adaptive")
        assert result.status == "ok"
        assert result.n_cut >= sweep.ADAPTIVE_START
        tail = result.lab_state.fock_tail
        assert tail < sweep.ADAPTIVE_TAIL_TOL

    def test_adaptive_policy_caps_with_warning_status(self, monkeypatch):
        monkeypatch.setattr(sweep, "ADAPTIVE_CAP", 20)
        config = make_config(mu_tilde=-5.0, delta_mu=60.0, lam=0.7, n_cut=10)
        result = run_point(config, n_cut_policy="adaptive")
        assert result.status == "n_cut_cap"
        assert result.n_cut == 20

    @pytest.mark.parametrize("outputs", [("transport", "mode"), OUTPUT_GROUPS], ids=["no-phasespace", "all"])
    @pytest.mark.parametrize(
        "point",
        [
            dict(mu_tilde=12.342068275197867, delta_mu=0.0),  # equilibrium, at the cap
            dict(mu_tilde=12.342068275197867, delta_mu=0.0, t_left_mk=20.0, t_right_mk=20.0),  # settles
            dict(mu_tilde=0.0, delta_mu=-50.0),  # self-oscillation
            dict(mu_tilde=0.0, delta_mu=-50.0, lam=1.4),  # 16 torotropy rays
            dict(mu_tilde=0.0, delta_mu=-50.0, lam=0.05),
            dict(mu_tilde=0.0, delta_mu=-50.0, lam=1e-10),  # error row on the first rung
            dict(mu_tilde=0.0, delta_mu=-50.0, lam=1e-6),  # ill-conditioned generator
            dict(mu_tilde=0.0, delta_mu=-50.0, lam=5e-8),  # the probe fails at N = 15 and 20, the LU does not
        ],
        ids=["eq", "eq-cold", "so", "lam1.4", "lam0.05", "lam1e-10", "lam1e-6", "lam5e-8"],
    )
    def test_adaptive_policy_matches_the_lu_ladder(self, monkeypatch, point, outputs):
        # the ladder decided on the matrix-free solve ends on the rung, with the
        # status and the row cells, of the ladder that ran the LU on every rung
        for name, value in (("ADAPTIVE_START", 10), ("ADAPTIVE_STEP", 5), ("ADAPTIVE_CAP", 20)):
            monkeypatch.setattr(sweep, name, value)
        config = make_config(n_cut=6, **point)
        result = run_point(config, outputs, n_cut_policy="adaptive")
        expected = adaptive_ladder_lu(config, outputs)
        assert (result.n_cut, result.status) == (expected.n_cut, expected.status)
        assert {k: repr(v) for k, v in result.row(outputs).items()} == {
            k: repr(v) for k, v in expected.row(outputs).items()
        }

    def test_solver_failure_is_recorded_not_raised(self, monkeypatch):
        def boom(config, outputs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweep, "evaluate_point", boom)
        result = run_point(make_config(n_cut=8))
        assert result.status == "error:RuntimeError"
        assert math.isnan(result.residual)
        row = result.row(("transport", "mode"))
        assert math.isnan(row["current_R"])
        assert row["mode"] == ""


class TestEvaluatePoint:
    def test_phasespace_reduces_the_resonator_once(self, monkeypatch):
        calls = []
        reduce = phasespace.reduce_resonator

        def counted(state):
            calls.append(state)
            return reduce(state)

        monkeypatch.setattr(phasespace, "reduce_resonator", counted)
        config = make_config(n_cut=10)
        point = sweep.evaluate_point(config, ("phasespace",))
        assert len(calls) == 1
        # the measure's matrix is the one a fresh reduction gives, bit for bit
        assert point.ergotropy == phasespace.ergotropy(reduce(point.lab_state)[0], config.system.omega)

    def test_failure_raises(self):
        # run_point turns this into an error row; evaluate_point does not catch it
        config = make_config(lam=1e-10, mu_tilde=0.0, delta_mu=-50.0, n_cut=20)
        with pytest.raises(redfield.SteadyStateError):
            sweep.evaluate_point(config)


BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def one_blas_thread(monkeypatch):
    """A worker pool a test starts itself runs with one BLAS thread, as run_sweep's
    does, so that its rows are bit for bit the sweep's."""
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")


def _small_spec(**kwargs):
    defaults = dict(
        axis1=SweepAxis("mu_tilde", -2.0, 2.0, 3),
        axis2=SweepAxis("delta_mu", -10.0, 10.0, 3),
        outputs=("transport", "thermo", "phasespace", "mode"),
        n_cut_policy="fixed",
        workers=1,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestRunSweep:
    def test_output_is_worker_count_independent(self, tmp_path):
        config = make_config(lam=0.7, n_cut=10)
        spec = _small_spec()
        one = run_sweep(config, spec, tmp_path / "w1.csv")
        two = run_sweep(config, replace(spec, workers=2), tmp_path / "w2.csv")
        assert one.n_points == two.n_points == 9
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_rows_in_row_major_axis_order(self, tmp_path):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(axis2=SweepAxis("delta_mu", -10.0, 10.0, 2))
        run_sweep(config, spec, tmp_path / "order.csv")
        lines = [
            l
            for l in (tmp_path / "order.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        header = lines[0].split(",")
        assert header[:2] == ["mu_tilde", "delta_mu"]
        pairs = [tuple(float(x) for x in l.split(",")[:2]) for l in lines[1:]]
        assert pairs == [
            (-2.0, -10.0),
            (-2.0, 10.0),
            (0.0, -10.0),
            (0.0, 10.0),
            (2.0, -10.0),
            (2.0, 10.0),
        ]

    def test_metadata_echoes_config_without_volatile_fields(self, tmp_path):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(axis2=None)
        run_sweep(config, spec, tmp_path / "meta.csv")
        meta = [
            l
            for l in (tmp_path / "meta.csv").read_text().splitlines()
            if l.startswith("#")
        ]
        assert meta == sweep._metadata_lines(config, spec)
        assert any("config.system.lam = 0.7" in l for l in meta)
        assert any("sweep.axis1 = mu_tilde" in l for l in meta)

    def test_journal_removed_after_success(self, tmp_path):
        config = make_config(lam=0.7, n_cut=8)
        out = tmp_path / "clean.csv"
        run_sweep(config, _small_spec(axis2=None), out)
        assert out.exists()
        assert not out.with_name(out.name + ".journal").exists()

    def test_invalid_point_is_recorded_not_fatal(self, tmp_path):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(
            axis1=SweepAxis("lam", 0.7, -0.7, 3), axis2=None
        )
        out = tmp_path / "partial.csv"
        outcome = run_sweep(config, spec, out)
        assert outcome.n_points == 3
        assert outcome.n_errors == 1
        rows = [
            l.split(",")
            for l in out.read_text().splitlines()
            if l and not l.startswith("#")
        ]
        status = {float(r[0]): r[1] for r in rows[1:]}
        assert status[0.7] == "ok"
        assert status[0.0] == "degenerate"
        assert status[-0.7] == "error:ValueError"

    def test_zero_coupling_rows_are_degenerate_with_closed_form_current(self, tmp_path):
        # the mu_tilde grid holds -36, 12, 36, 54 and 60, where a bordered
        # LU solve of the decoupled generator succeeds and would return an
        # arbitrary phonon sector
        config = make_config(delta_mu=-50.0, n_cut=6)
        spec = _small_spec(
            axis1=SweepAxis("lam", 0.0, 0.7, 2), axis2=SweepAxis("mu_tilde", -36.0, 60.0, 17)
        )
        out = tmp_path / "lam0.csv"
        run_sweep(config, spec, out)
        with open(out) as fh:
            rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
        zero = [r for r in rows if float(r["lam"]) == 0.0]
        assert len(zero) == 17
        for row in zero:
            assert row["status"] == "degenerate"
            for column in ("phonon_number", "zeta", "torotropy", "ergotropy", "barycenter_gap"):
                assert math.isnan(float(row[column]))
            point = spec.axis2.apply(spec.axis1.apply(config, 0.0), float(row["mu_tilde"]))
            assert abs(float(row["current_R"]) - two_state_current(point)) <= 1e-12

    def test_killed_worker_gives_error_rows_that_resume_recomputes(self, tmp_path, monkeypatch):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(axis2=None)
        fresh = tmp_path / "fresh.csv"
        run_sweep(config, spec, fresh)

        class KilledWorkerPool(ProcessPoolExecutor):
            """Point 0 runs in a worker; then a worker dies, and the pool fails
            every later point as ProcessPoolExecutor does."""

            def submit(self, fn, task):
                if task[0] == 0:
                    return super().submit(fn, task)
                fut = Future()
                fut.set_exception(BrokenProcessPool("a process in the pool was terminated abruptly"))
                return fut

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", KilledWorkerPool)
        out = tmp_path / "killed.csv"
        outcome = run_sweep(config, spec, out)
        assert (outcome.n_points, outcome.n_errors) == (3, 2)
        with open(out) as fh:
            rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
        assert [r["status"] for r in rows] == ["ok", "error:BrokenProcessPool", "error:BrokenProcessPool"]
        assert [float(r["mu_tilde"]) for r in rows] == [-2.0, 0.0, 2.0]
        journal = out.with_name(out.name + ".journal")
        assert [json.loads(line).get("index") for line in journal.read_text().splitlines()] == [None, 0]

        monkeypatch.undo()
        run_sweep(config, spec, out, resume=True)
        assert out.read_bytes() == fresh.read_bytes()
        assert not journal.exists()

    def test_resume_completes_partial_journal_bit_identically(self, tmp_path, one_blas_thread):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(axis2=SweepAxis("delta_mu", -10.0, 10.0, 2))
        fresh = tmp_path / "fresh.csv"
        run_sweep(config, spec, fresh)

        # compute the first three rows exactly as a worker would
        tasks = [(i, config, assignment, spec) for i, assignment in list(spec.points())[:3]]
        ctx = get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            rows = list(pool.map(sweep._evaluate_task, tasks))

        resumed = tmp_path / "resumed.csv"
        journal = resumed.with_name(resumed.name + ".journal")
        with open(journal, "w") as fh:
            fh.write(json.dumps({"signature": sweep._sweep_signature(config, spec)}) + "\n")
            for index, row in rows:
                fh.write(json.dumps({"index": index, "row": row}) + "\n")
        run_sweep(config, spec, resumed, resume=True)
        assert resumed.read_bytes() == fresh.read_bytes()
        assert not journal.exists()

    def test_resume_recomputes_a_journal_line_cut_short(self, tmp_path, one_blas_thread):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(axis2=None)
        fresh = tmp_path / "fresh.csv"
        run_sweep(config, spec, fresh)

        task = (0, config, {"mu_tilde": -2.0}, spec)
        with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
            index, row = pool.submit(sweep._evaluate_task, task).result()
        resumed = tmp_path / "resumed.csv"
        journal = resumed.with_name(resumed.name + ".journal")
        with open(journal, "w") as fh:
            fh.write(json.dumps({"signature": sweep._sweep_signature(config, spec)}) + "\n")
            fh.write(json.dumps({"index": index, "row": row}) + "\n")
            fh.write('{"index": 1, "row": {"mu_tilde": 0.0, "sta')  # killed mid-write
        run_sweep(config, spec, resumed, resume=True)
        assert resumed.read_bytes() == fresh.read_bytes()

    def test_resume_rejects_a_malformed_complete_line(self, tmp_path):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(axis2=None)
        out = tmp_path / "broken.csv"
        journal = out.with_name(out.name + ".journal")
        text = json.dumps({"signature": sweep._sweep_signature(config, spec)}) + "\n"
        journal.write_text(text + '{"index": 0, "row": {"mu_tilde": -2.0, "sta\n')
        with pytest.raises(sweep.JournalError, match="line 2 is not JSON") as err:
            run_sweep(config, spec, out, resume=True)
        assert isinstance(err.value.__cause__, json.JSONDecodeError)

    def test_resume_does_not_recompute_journaled_points(self, tmp_path):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(axis2=None, outputs=("transport",))
        out = tmp_path / "marked.csv"
        journal = out.with_name(out.name + ".journal")
        marker = {
            "mu_tilde": -2.0,
            "status": "ok",
            "n_cut": 8,
            "residual": 0.0,
            "min_eig": 0.0,
            "current_L": 123.456,
            "current_R": -123.456,
        }
        with open(journal, "w") as fh:
            fh.write(json.dumps({"signature": sweep._sweep_signature(config, spec)}) + "\n")
            fh.write(json.dumps({"index": 0, "row": marker}) + "\n")
        run_sweep(config, spec, out, resume=True)
        first_row = [
            l for l in out.read_text().splitlines() if l and not l.startswith("#")
        ][1]
        assert "123.456" in first_row

    def test_resume_rejects_mismatched_journal(self, tmp_path):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(axis2=None)
        out = tmp_path / "stale.csv"
        journal = out.with_name(out.name + ".journal")
        journal.write_text(json.dumps({"signature": "deadbeef"}) + "\n")
        with pytest.raises(ValueError):
            run_sweep(config, spec, out, resume=True)


class TestBlasThreads:
    @pytest.mark.parametrize("caller", [None, "4"])
    @pytest.mark.parametrize("fail", [False, True])
    def test_workers_run_single_threaded_and_the_caller_keeps_its_settings(
        self, caller, fail, tmp_path, monkeypatch
    ):
        for name in BLAS_THREAD_VARIABLES:
            if caller is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, caller)
        before = dict(os.environ)
        seen = []

        class InlinePool:
            """Stands in for ProcessPoolExecutor: runs each task here and records
            the BLAS settings a worker started now would inherit."""

            def __init__(self, max_workers, mp_context):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                seen.append({name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES})
                if fail:
                    raise RuntimeError("synthetic pool failure")
                fut = Future()
                fut.set_result(fn(task))
                return fut

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
        spec = _small_spec(axis2=None)
        if fail:
            with pytest.raises(RuntimeError, match="synthetic pool failure"):
                run_sweep(make_config(n_cut=6), spec, tmp_path / "out.csv")
        else:
            assert run_sweep(make_config(n_cut=6), spec, tmp_path / "out.csv").n_errors == 0
        assert seen == [dict.fromkeys(BLAS_THREAD_VARIABLES, "1")] * (1 if fail else 3)
        assert dict(os.environ) == before
