"""Configuration files, axis plumbing, point evaluation, and sweep output."""

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from qdmr import sweep
from qdmr.configfile import (
    ConfigError,
    SweepAxis,
    SweepSpec,
    config_from_dict,
    config_to_dict,
    load_config,
)
from qdmr.sweep import apply_axis, run_point, run_sweep
from qdmr.validation import two_state_current

from conftest import make_config

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
        assert config.delta_mu == 60.0

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
        assert spec.shape == (3, 2)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            SweepAxis("voltage", 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            SweepAxis("mu_tilde", 0.0, 1.0, 0)

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

    def test_dict_round_trip(self):
        config = make_config(mu_tilde=-3.0, delta_mu=24.0, lam=0.9, n_cut=14)
        assert config_from_dict(config_to_dict(config)) == config


class TestApplyAxis:
    def test_each_axis(self):
        config = make_config()
        assert apply_axis(config, "mu_tilde", 7.0).system.mu_tilde == 7.0
        assert apply_axis(config, "lam", 0.4).system.lam == 0.4
        biased = apply_axis(config, "delta_mu", -30.0)
        assert biased.lead_L.chem_potential == -15.0
        assert biased.lead_R.chem_potential == 15.0

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            apply_axis(make_config(), "omega", 1.0)


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

    def test_solver_failure_is_recorded_not_raised(self, monkeypatch):
        def boom(config, outputs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweep, "_solve_point", boom)
        result = run_point(make_config(n_cut=8))
        assert result.status == "error:RuntimeError"
        assert math.isnan(result.residual)
        row = result.row(("transport", "mode"))
        assert math.isnan(row["current_R"])
        assert row["mode"] == ""


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
        one = run_sweep(config, spec, tmp_path / "w1.csv", workers=1)
        two = run_sweep(config, spec, tmp_path / "w2.csv", workers=2)
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
            point = apply_axis(apply_axis(config, "lam", 0.0), "mu_tilde", float(row["mu_tilde"]))
            assert abs(float(row["current_R"]) - two_state_current(point)) <= 1e-12

    def test_resume_completes_partial_journal_bit_identically(self, tmp_path):
        config = make_config(lam=0.7, n_cut=8)
        spec = _small_spec(axis2=SweepAxis("delta_mu", -10.0, 10.0, 2))
        fresh = tmp_path / "fresh.csv"
        run_sweep(config, spec, fresh)

        # compute the first three rows exactly as a worker would
        points = sweep._point_assignments(spec)
        config_data = config_to_dict(config)
        tasks = [
            (i, config_data, assign, list(spec.outputs), spec.n_cut_policy)
            for i, assign in points[:3]
        ]
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
